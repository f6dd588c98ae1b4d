package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenTablesByteIdentical pins the seeded table1/fig6 outputs to
// checked-in goldens. With repair disabled (the experiment default) the
// anti-entropy machinery must be invisible: not one RNG draw, placement
// decision, or lookup sample may shift, so the rendered CSVs stay
// byte-identical release over release. The three on/off scenarios whose
// every column is seeded (ext-select reports wall-clock latency and is
// not among them) are pinned the same way, so a change that moves an
// efficacy number the docs quote shows up as a diff. Regenerate
// deliberately with
//
//	BENCH_GEN_GOLDEN=1 go test ./internal/bench -run TestGoldenTables
//
// after any change that intentionally alters experiment output, and
// justify the diff in the commit.
func TestGoldenTablesByteIdentical(t *testing.T) {
	fid := Fidelity{Runs: 4, Lookups: 100, Updates: 400}
	for _, id := range []string{"table1", "fig6", "ext-repair", "ext-membership", "ext-zone"} {
		t.Run(id, func(t *testing.T) {
			exp, err := Find(id)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := exp.Run(fid, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := tbl.CSV()
			path := filepath.Join("testdata", fmt.Sprintf("golden-%s.csv", id))
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
				t.Errorf("%s output diverged from golden %s:\n got:\n%s\nwant:\n%s", id, path, got, want)
			}
		})
	}
}
