package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckStalePaths: a doc naming a package directory that exists
// passes, one naming a directory that does not is reported, and the
// exempt files may name either.
func TestCheckStalePaths(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal", "live"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, text string) {
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("README.md", "Run `go test ./internal/live`.\nThe runners live in internal/gone.\n")
	write("CHANGES.md", "internal/gone folded into internal/live.\n")
	write("ISSUE.md", "Fold internal/gone into internal/live.\n")

	problems := checkStalePaths(root)
	if len(problems) != 1 || !strings.Contains(problems[0], "README.md:2: internal/gone") {
		t.Fatalf("problems = %q, want one for internal/gone on README.md:2", problems)
	}
}

// TestCheckDesignLength: a DESIGN.md of 600 lines passes and one of
// 601 is reported.
func TestCheckDesignLength(t *testing.T) {
	root := t.TempDir()
	for _, tc := range []struct {
		lines, problems int
	}{{600, 0}, {601, 1}} {
		text := strings.Repeat("line\n", tc.lines)
		if err := os.WriteFile(filepath.Join(root, "DESIGN.md"), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if problems := checkDesignLength(root); len(problems) != tc.problems {
			t.Fatalf("%d lines: problems = %q, want %d", tc.lines, problems, tc.problems)
		}
	}
}
