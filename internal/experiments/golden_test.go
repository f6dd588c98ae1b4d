package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestGoldenTablesByteIdentical pins the seeded experiment outputs to
// checked-in goldens. With repair disabled (the experiment default) the
// anti-entropy machinery must be invisible: not one RNG draw, placement
// decision, or lookup sample may shift, so the rendered CSVs stay
// byte-identical release over release. The static figures, the Sec. 6
// churn runs (fig12, fig13, fig14, table2, and ext-rsreplace and
// ext-optimaly built on them), the overlay, failure and hot-spot
// extensions, and the three on/off scenarios whose every column is
// seeded are all pinned, so a change that moves a number the docs
// quote shows up as a diff. ext-select and ext-trace are not among
// them: their selectors order servers by wall-clock latency; nor is
// ext-availability, whose lookups run against a wall-clock deadline.
// Regenerate deliberately with
//
//	BENCH_GEN_GOLDEN=1 go test ./internal/experiments -run TestGolden
//
// after any change that intentionally alters experiment output, and
// justify the diff in the commit.
func TestGoldenTablesByteIdentical(t *testing.T) {
	fid := Fidelity{Runs: 4, Lookups: 100, Updates: 400}
	for _, id := range []string{
		"table1", "fig4", "fig6", "fig7", "fig9", "fig12", "fig13", "fig14", "table2",
		"ext-rsreplace", "ext-overlay", "ext-failures", "ext-optimaly", "ext-hotspot",
		"ext-repair", "ext-membership", "ext-zone",
	} {
		t.Run(id, func(t *testing.T) {
			exp, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := exp.Run(fid, 1)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("golden-%s.csv", id), tbl.CSV())
		})
	}
}

// TestGoldenTraceStream pins ext-trace's op stream, which its table
// cannot pin: every op's kind, key and entry of a small seeded trace.
func TestGoldenTraceStream(t *testing.T) {
	tr, err := generateTrace(stats.NewRNG(1), traceConfig{
		Keys: 20, EntriesPerKey: 3, Ops: 300, ZipfS: 0.99, LookupFrac: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, op := range tr.Ops {
		fmt.Fprintf(&b, "%s %s", op.Kind, keyName(op.Key))
		if op.Kind != OpLookup {
			fmt.Fprintf(&b, " %s", op.Entry)
		}
		b.WriteByte('\n')
	}
	checkGolden(t, "golden-trace-stream.txt", b.String())
}

// checkGolden compares got with testdata/name, or writes it there when
// BENCH_GEN_GOLDEN is set.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("BENCH_GEN_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with BENCH_GEN_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("output diverged from golden %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
