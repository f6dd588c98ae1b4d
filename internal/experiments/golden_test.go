package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
)

// TestGoldenTablesByteIdentical pins the seeded experiment outputs to
// checked-in goldens. With repair disabled (the experiment default) the
// anti-entropy machinery must be invisible: not one RNG draw, placement
// decision, or lookup sample may shift, so the rendered CSVs stay
// byte-identical release over release. The static figures, the Sec. 6
// churn runs (fig12, fig13, fig14, table2, and ext-rsreplace and
// ext-optimaly built on them) and every extension are pinned, so a
// change that moves a number the docs quote shows up as a diff. The
// in-process cluster's virtual clock (DESIGN §1) pins the ones that
// time lookups too: ext-select, ext-availability and ext-trace, the
// last on traceSmall, as its 10 000-server run is CPU-bound at ~8 s.
// Regenerate deliberately with
//
//	BENCH_GEN_GOLDEN=1 go test ./internal/experiments -run TestGolden
//
// after any change that intentionally alters experiment output, and
// justify the diff in the commit.
func TestGoldenTablesByteIdentical(t *testing.T) {
	fid := Fidelity{Runs: 4, Lookups: 100, Updates: 400}
	inproc := make(map[string]string)
	for _, id := range []string{
		"table1", "fig4", "fig6", "fig7", "fig9", "fig12", "fig13", "fig14", "table2",
		"ext-rsreplace", "ext-overlay", "ext-failures", "ext-optimaly", "ext-hotspot",
		"ext-repair", "ext-membership", "ext-zone", "ext-select", "ext-availability",
	} {
		t.Run(id, func(t *testing.T) {
			inproc[id] = render(t, id, fid)
			checkGolden(t, fmt.Sprintf("golden-%s.csv", id), inproc[id])
		})
	}
	t.Run("ext-trace", func(t *testing.T) {
		tbl, err := traceSmall.run(1)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "golden-ext-trace.csv", tbl.CSV())
	})

	// The wired arm: the wire changes nothing (DESIGN §1). The paper's
	// tables, ext-membership's Join and Drain and ext-repair's Replace
	// run again over wired clusters, where every message crosses a
	// socket unless a node addresses itself, and table2 once more with
	// a WAL per node. Each must render, at golden fidelity, what the
	// in-process run rendered at the same seed; the volatile arm runs its
	// experiments side by side.
	for _, arm := range []struct {
		name    string
		durable bool
		ids     []string
	}{
		{"wired+WAL", true, []string{"table2"}},
		{"wired", false, []string{"table1", "fig4", "table2", "ext-membership", "ext-repair"}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			for _, id := range arm.ids {
				if _, ok := inproc[id]; !ok { // its golden subtest did not run
					inproc[id] = render(t, id, fid)
				}
			}
			wireClusters(t, arm.durable)
			for _, id := range arm.ids {
				t.Run(id, func(t *testing.T) {
					if !arm.durable {
						t.Parallel()
					}
					got, want := strings.Split(render(t, id, fid), "\n"), strings.Split(inproc[id], "\n")
					row := func(rows []string, i int) string {
						if i < len(rows) {
							return rows[i]
						}
						return ""
					}
					for i := 0; i < max(len(got), len(want)); i++ {
						if row(got, i) != row(want, i) {
							t.Fatalf("%s, %s arm: row %d differs from the in-process run:\n got: %q\nwant: %q",
								id, arm.name, i+1, row(got, i), row(want, i))
						}
					}
				})
			}
		})
	}
}

// render runs experiment id at fid with seed 1 and returns its CSV.
func render(t *testing.T, id string, fid Fidelity) string {
	t.Helper()
	exp, err := Find(id)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := exp.Run(fid, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tbl.CSV()
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

// wireClusters has the experiments build wired clusters until t and
// its subtests end, durable ones with a data directory each. Each
// experiment closes the clusters it builds.
func wireClusters(t *testing.T, durable bool) {
	root := ""
	if durable {
		root = walRoot(t)
	}
	newCluster = func(n int, rng *stats.RNG) *cluster.Cluster {
		dir := ""
		if durable {
			var err error
			if dir, err = os.MkdirTemp(root, "cluster-"); err != nil {
				panic(err)
			}
		}
		cl, err := cluster.NewWired(n, rng, dir)
		if err != nil {
			panic(err)
		}
		return cl
	}
	t.Cleanup(func() { newCluster = cluster.New })
}

// walRoot returns a directory for durable clusters' logs, removed once
// t ends: on /dev/shm where there is one, since the arm checks what
// logging changes, not what a disk's fsync costs (on an ordinary disk
// the arm takes 3–4 s instead of about 1.2 s).
func walRoot(t *testing.T) string {
	dir, err := os.MkdirTemp("/dev/shm", "pls-wired-")
	if err != nil {
		return t.TempDir()
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}
