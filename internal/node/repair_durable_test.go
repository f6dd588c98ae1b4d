package node

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wire"
)

// staticHealth is a fixed health view for driving sweeps directly: no
// selector in the loop, every server reachable, one failure on record
// so the epoch gate lets the sweep run.
type staticHealth struct {
	dead  []bool
	epoch uint64
}

func (h staticHealth) PresumedDead() []bool { return h.dead }
func (h staticHealth) FailureEpoch() uint64 { return h.epoch }

// TestRecoveryPreservesRepairs pins the tentpole's WAL claim: repair
// acceptances are logged like any other mutation, so a crash right
// after a sweep recovers the repaired state byte-identically — the
// re-replicated entries survive, they are not re-derived.
func TestRecoveryPreservesRepairs(t *testing.T) {
	for name, cfg := range map[string]wire.Config{
		"full":  {Scheme: wire.FullReplication},
		"fixed": {Scheme: wire.Fixed, X: 5},
		"rs":    {Scheme: wire.RandomServer, X: 4},
		"round": {Scheme: wire.RoundRobin, Y: 2},
		"hash":  {Scheme: wire.Hash, Y: 2, Seed: 0x5eed},
	} {
		t.Run(name, func(t *testing.T) {
			const n = 4
			const victim = 2
			dirs := nodeDirs(t, n)
			dc := newDurCluster(t, n, 42, dirs, store.SyncBatch)
			for k := 0; k < 2; k++ {
				dc.runWorkload(fmt.Sprintf("key-%d", k), cfg)
			}

			// Disk-loss replacement: a blank node on a fresh data dir
			// takes over the victim's slot (the old dir is gone with the
			// old disk).
			dirs[victim] = filepath.Join(t.TempDir(), "replacement")
			if err := os.MkdirAll(dirs[victim], 0o755); err != nil {
				t.Fatal(err)
			}
			nd := New(victim, stats.NewRNG(600))
			d, err := nd.OpenDurability(dirs[victim], store.SyncBatch, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			dc.attach(victim, nd)
			dc.nodes[victim] = nd
			dc.durs[victim] = d

			health := staticHealth{dead: make([]bool, n), epoch: 1}
			moved := 0
			for _, sweeper := range dc.nodes {
				r := NewRepairer(sweeper, RepairOptions{Health: health})
				moved += r.SweepOnce(context.Background()).Moved
			}
			if moved == 0 {
				t.Fatal("sweeps moved nothing onto the blank replacement")
			}
			if got := nd.LocalLen("key-0") + nd.LocalLen("key-1"); got == 0 {
				t.Fatal("replacement still empty after sweeps")
			}

			want := make([]map[string]wire.SnapKey, n)
			for i, node := range dc.nodes {
				want[i] = captureState(node)
			}
			// Crash: abandon the cluster without closing anything — the
			// WAL tails must carry the repair acceptances.

			rc := newDurCluster(t, n, 42, dirs, store.SyncBatch)
			for i, node := range rc.nodes {
				if got := captureState(node); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("node %d state diverged after post-repair crash:\n got %#v\nwant %#v", i, got, want[i])
				}
			}
		})
	}
}

// TestDurableRoundSequencerRebuildsCounters: a blank durable
// replacement of server 0 rebuilds the Round-y counters on its first
// add, and logs them with the position it assigns, so recovering its
// log yields the rebuilt counters, not (0, 0).
func TestDurableRoundSequencerRebuildsCounters(t *testing.T) {
	const n = 4
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	dirs := nodeDirs(t, n)
	dc := newDurCluster(t, n, 43, dirs, store.SyncBatch)
	placed := make([]string, 8)
	for i := range placed {
		placed[i] = fmt.Sprintf("v%d", i+1)
	}
	dc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: placed})

	dirs[0] = filepath.Join(t.TempDir(), "replacement")
	nd := New(0, stats.NewRNG(601))
	if _, err := nd.OpenDurability(dirs[0], store.SyncBatch, 0, nil); err != nil {
		t.Fatal(err)
	}
	dc.attach(0, nd)
	dc.nodes[0] = nd
	health := staticHealth{dead: make([]bool, n), epoch: 1}
	for _, sweeper := range dc.nodes {
		NewRepairer(sweeper, RepairOptions{Health: health}).SweepOnce(context.Background())
	}

	dc.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: "x"})
	if head, tail := nd.Counters("k"); head != 0 || tail != 9 {
		t.Fatalf("counters = (%d,%d), want (0,9)", head, tail)
	}
	// Crash: abandon the replacement and recover a node from its log.
	rn := New(0, stats.NewRNG(602))
	if _, err := rn.OpenDurability(dirs[0], store.SyncBatch, 0, nil); err != nil {
		t.Fatal(err)
	}
	if head, tail := rn.Counters("k"); head != 0 || tail != 9 {
		t.Fatalf("recovered counters = (%d,%d), want (0,9)", head, tail)
	}
}
