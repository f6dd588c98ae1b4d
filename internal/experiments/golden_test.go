package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

	// The wired arm: the wire changes nothing (DESIGN §1). The paper's
	// tables, ext-membership's Join and Drain and ext-repair's Replace
	// run again over wired clusters, where every message crosses a
	// socket unless a node addresses itself, and table2 once more with
	// a WAL per node. Each must render what the in-process run renders
	// at the same seed. At golden fidelity the arm would add seconds, so
	// it runs the lower wiredFid, its volatile experiments side by side.
	wiredFid := Fidelity{Runs: 2, Lookups: 50, Updates: 200}
	for _, arm := range []struct {
		name    string
		durable bool
		ids     []string
	}{
		{"wired+WAL", true, []string{"table2"}},
		{"wired", false, []string{"table1", "fig4", "table2", "ext-membership", "ext-repair"}},
	} {
		t.Run(arm.name, func(t *testing.T) {
			inproc := make(map[string]string)
			for _, id := range arm.ids {
				inproc[id] = render(t, id, wiredFid)
			}
			wireClusters(t, arm.durable)
			for _, id := range arm.ids {
				t.Run(id, func(t *testing.T) {
					if !arm.durable {
						t.Parallel()
					}
					got, want := strings.Split(render(t, id, wiredFid), "\n"), strings.Split(inproc[id], "\n")
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

// wireClusters has the experiments build wired clusters until t and
// its subtests end, durable ones with a data directory each. A durable
// node holds a file per WAL stripe it has written, so the durable arm
// runs one experiment at a time and closes each cluster when that
// builds the next; volatile ones are closed at the end.
func wireClusters(t *testing.T, durable bool) {
	root := ""
	if durable {
		root = walRoot(t)
	}
	var mu sync.Mutex
	var open []*cluster.Cluster
	closeOpen := func() {
		for _, cl := range open {
			if err := cl.Close(); err != nil {
				t.Error(err)
			}
		}
		open = nil
	}
	newCluster = func(n int, rng *stats.RNG) *cluster.Cluster {
		mu.Lock()
		defer mu.Unlock()
		dir := ""
		if durable {
			closeOpen()
			var err error
			if dir, err = os.MkdirTemp(root, "cluster-"); err != nil {
				panic(err)
			}
		}
		cl, err := cluster.NewWired(n, rng, dir)
		if err != nil {
			panic(err)
		}
		open = append(open, cl)
		return cl
	}
	t.Cleanup(func() {
		newCluster = cluster.New
		closeOpen()
	})
}

// walRoot returns a directory for durable clusters' logs, removed once
// t ends: on /dev/shm where there is one, since the arm checks what
// logging changes, not what a disk's fsync costs (about 30 ms per node
// opened on an ordinary disk).
func walRoot(t *testing.T) string {
	dir, err := os.MkdirTemp("/dev/shm", "pls-wired-")
	if err != nil {
		return t.TempDir()
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}
