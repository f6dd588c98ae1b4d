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

// TestCheckMakeTargets: a doc naming a target the Makefile defines
// passes, one naming a target it does not is reported, and the exempt
// files may name either.
func TestCheckMakeTargets(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("Makefile", "GO ?= go\nFLAGS := -v\n\nlive: build\n\t$(GO) test ./...\n\nbuild:\n\t$(GO) build ./...\n")
	write("README.md", "Run `make live` or `make build GO=go1.22`.\nRun `make gone`, or `make FLAGS`.\n")
	write("ROADMAP.md", "`make gone` is retired.\n")

	problems := checkMakeTargets(root)
	if len(problems) != 2 || !strings.Contains(problems[0], "README.md:2: make gone") ||
		!strings.Contains(problems[1], "README.md:2: make FLAGS") {
		t.Fatalf("problems = %q, want make gone and make FLAGS on README.md:2", problems)
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

// TestCheckChangesEntries: an entry, with its indented lines, of at
// most 3 000 characters passes; a longer one for PR 46 or later is
// reported, and one for an earlier PR is not.
func TestCheckChangesEntries(t *testing.T) {
	root := t.TempDir()
	long := strings.Repeat("x", 1500)
	text := "- PR 45 (old): " + long + long + "\n" + // history: not checked
		"- PR 46 (fits): " + long + "\n  " + long[:1400] + "\n" +
		"FOUND: " + long + long + "\n" + // not an entry
		"- PR 47 (too long): " + long + "\n  " + long + "\n"
	if err := os.WriteFile(filepath.Join(root, "CHANGES.md"), []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	problems := checkChangesEntries(root)
	if len(problems) != 1 || !strings.Contains(problems[0], "PR 47 entry has 3023 characters") {
		t.Fatalf("problems = %q, want one for PR 47's 3023 characters", problems)
	}
}

// TestCheckIdents: a doc naming a declared type, function or method of
// a package under internal/ passes, one naming an exported name the
// package lacks is reported, names of other packages and unexported
// names are not checked, and the exempt files may name anything.
func TestCheckIdents(t *testing.T) {
	root := t.TempDir()
	if err := os.MkdirAll(filepath.Join(root, "internal", "live"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(name, text string) {
		if err := os.WriteFile(filepath.Join(root, name), []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("internal/live/live.go", "package live\n\ntype Net struct{}\n\nfunc (Net) Call() {}\n\nfunc New() Net { return Net{} }\n\nconst (\n\tA, B = 1, 2\n)\n")
	write("README.md", "Build `live.New()` and `live.Net`, then `live.Call`.\n"+
		"`live.B` and `x.live.Gone` and `time.Duration` and `live.gone` pass.\n"+
		"`live.Inner` is gone; so is live.Outer, outside a code span.\n")
	write("CHANGES.md", "`live.Inner` folded into `live.Net`.\n")

	problems := checkIdents(root)
	if len(problems) != 1 || !strings.Contains(problems[0], "README.md:3: live.Inner") {
		t.Fatalf("problems = %q, want one for live.Inner on README.md:3", problems)
	}
}
