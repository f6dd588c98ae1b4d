package main

import (
	"strings"
	"testing"
)

// A mistyped -format used to fall through to text; it must be refused
// before any experiment runs.
func TestUnknownFormatRejected(t *testing.T) {
	err := run([]string{"-exp", "table1", "-fidelity", "quick", "-format", "cvs"})
	if err == nil || !strings.Contains(err.Error(), `unknown format "cvs"`) {
		t.Fatalf("run(-format cvs) = %v, want an unknown-format error", err)
	}
}
