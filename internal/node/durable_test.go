package node

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// durCluster is a minimal in-process cluster of durable nodes: the
// recovery tests need direct access to each node's Durability and
// store, which the cluster package deliberately does not expose.
type durCluster struct {
	t     *testing.T
	nodes []*Node
	durs  []*Durability
	tr    *transport.Inproc
}

// newDurCluster builds n nodes seeded from one root seed. dirs[i], when
// non-empty, makes node i durable under that directory; an empty string
// leaves it volatile. Node RNG split order matches across calls, so two
// clusters with the same seed consume identical random streams.
func newDurCluster(t *testing.T, n int, seed uint64, dirs []string, policy store.SyncPolicy) *durCluster {
	t.Helper()
	rng := stats.NewRNG(seed)
	dc := &durCluster{t: t, tr: transport.NewInproc(n)}
	for i := 0; i < n; i++ {
		nd := New(i, rng.Split())
		var d *Durability
		if i < len(dirs) && dirs[i] != "" {
			var err error
			d, err = nd.OpenDurability(dirs[i], policy, 0, nil)
			if err != nil {
				t.Fatalf("OpenDurability(node %d): %v", i, err)
			}
		}
		nd.Attach(dc.tr)
		dc.tr.Bind(i, nd)
		dc.nodes = append(dc.nodes, nd)
		dc.durs = append(dc.durs, d)
	}
	return dc
}

func (dc *durCluster) mustAck(server int, msg wire.Message) {
	dc.t.Helper()
	reply, err := dc.tr.Call(context.Background(), server, msg)
	if err != nil {
		dc.t.Fatalf("Call(%d, %T): %v", server, msg, err)
	}
	if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
		dc.t.Fatalf("Call(%d, %T) reply: %+v", server, msg, reply)
	}
}

func (dc *durCluster) lookup(server int, key string, tt int) []string {
	dc.t.Helper()
	reply, err := dc.tr.Call(context.Background(), server, wire.Lookup{Key: key, T: tt})
	if err != nil {
		dc.t.Fatalf("Lookup(%d, %q): %v", server, key, err)
	}
	lr, ok := reply.(wire.LookupReply)
	if !ok || lr.Err != "" {
		dc.t.Fatalf("Lookup reply: %+v", reply)
	}
	return lr.Entries
}

// captureState serializes a node's full per-key state through the same
// path snapshots use, with the LSN zeroed (recovery re-logs nothing,
// but its snapshot-on-open assigns fresh sequences).
func captureState(n *Node) map[string]wire.SnapKey {
	out := make(map[string]wire.SnapKey)
	n.store.Range(func(key string, ks *store.KeyState) bool {
		ks.SnapshotView(func(st *store.State, lsn uint64) {
			sk := snapKeyOf(key, st, lsn)
			sk.LSN = 0
			out[key] = sk
		})
		return true
	})
	return out
}

// schemeConfigs are the workloads the recovery tests cycle through —
// every placement strategy, including the RandomServer replacement
// variant whose delete path adds entries found at peers.
func schemeConfigs() map[string]wire.Config {
	return map[string]wire.Config{
		"full":       {Scheme: wire.FullReplication},
		"fixed":      {Scheme: wire.Fixed, X: 5},
		"rs":         {Scheme: wire.RandomServer, X: 4},
		"rs-replace": {Scheme: wire.RandomServer, X: 4, RSReplace: true},
		"round":      {Scheme: wire.RoundRobin, Y: 2, Coordinators: 2},
		"hash":       {Scheme: wire.Hash, Y: 2, Seed: 0x5eed},
		"partition":  {Scheme: wire.KeyPartition},
	}
}

// runWorkload drives a deterministic mixed workload for one key:
// placement, adds, deletes, and interleaved lookups (which consume RNG
// draws, as production traffic would).
func (dc *durCluster) runWorkload(key string, cfg wire.Config) {
	dc.t.Helper()
	entries := make([]string, 8)
	for i := range entries {
		entries[i] = fmt.Sprintf("%s-v%d", key, i+1)
	}
	dc.mustAck(0, wire.Place{Key: key, Config: cfg, Entries: entries})
	for i := 0; i < 4; i++ {
		dc.mustAck(0, wire.Add{Key: key, Config: cfg, Entry: fmt.Sprintf("%s-add%d", key, i)})
		dc.lookup(i%len(dc.nodes), key, 3)
	}
	dc.mustAck(0, wire.Delete{Key: key, Config: cfg, Entry: entries[0]})
	dc.mustAck(0, wire.Delete{Key: key, Config: cfg, Entry: fmt.Sprintf("%s-add%d", key, 1)})
	dc.lookup(1, key, 5)
}

func nodeDirs(t *testing.T, n int) []string {
	t.Helper()
	base := t.TempDir()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = filepath.Join(base, fmt.Sprintf("node%d", i))
		if err := os.MkdirAll(dirs[i], 0o755); err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// TestRecoveryEquivalence is the core durability property: after a
// crash (no graceful shutdown, no final snapshot — the WAL tail is all
// there is), a restarted cluster holds state identical to the moment of
// the crash, for every placement strategy. Identical state plus a
// freshly seeded RNG is what makes post-restart lookups byte-identical,
// which the cmd/plsd crash harness verifies end to end.
func TestRecoveryEquivalence(t *testing.T) {
	for name, cfg := range schemeConfigs() {
		t.Run(name, func(t *testing.T) {
			const n = 4
			dirs := nodeDirs(t, n)
			dc := newDurCluster(t, n, 42, dirs, store.SyncBatch)
			for k := 0; k < 3; k++ {
				dc.runWorkload(fmt.Sprintf("key-%d", k), cfg)
			}
			want := make([]map[string]wire.SnapKey, n)
			for i, nd := range dc.nodes {
				want[i] = captureState(nd)
			}
			// Crash: abandon the cluster without closing anything.

			rc := newDurCluster(t, n, 42, dirs, store.SyncBatch)
			for i, nd := range rc.nodes {
				got := captureState(nd)
				if !reflect.DeepEqual(got, want[i]) {
					t.Errorf("node %d state diverged after recovery:\n got %#v\nwant %#v", i, got, want[i])
				}
				st := rc.durs[i].Stats()
				if st.Replayed == 0 && len(want[i]) > 0 {
					t.Errorf("node %d replayed no records despite %d keys", i, len(want[i]))
				}
			}
		})
	}
}

// TestRecoverySnapshotPlusTail covers the mixed path: a mid-workload
// snapshot, more traffic, then a crash. Replay must skip records the
// snapshot already covers and apply only the tail.
func TestRecoverySnapshotPlusTail(t *testing.T) {
	const n = 4
	dirs := nodeDirs(t, n)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	dc := newDurCluster(t, n, 7, dirs, store.SyncBatch)
	dc.runWorkload("early", cfg)
	for _, d := range dc.durs {
		if err := d.SnapshotNow(); err != nil {
			t.Fatal(err)
		}
	}
	dc.runWorkload("late", cfg)
	want := make([]map[string]wire.SnapKey, n)
	for i, nd := range dc.nodes {
		want[i] = captureState(nd)
	}

	rc := newDurCluster(t, n, 7, dirs, store.SyncBatch)
	for i, nd := range rc.nodes {
		if got := captureState(nd); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("node %d state diverged:\n got %#v\nwant %#v", i, got, want[i])
		}
	}
}

// TestRecoveryGracefulCloseLeavesNoTail: after Close (final snapshot +
// WAL flush), reopening replays nothing — the snapshot covers it all.
// This is the "empty WAL with valid snapshot" recovery edge case.
func TestRecoveryGracefulCloseLeavesNoTail(t *testing.T) {
	const n = 2
	dirs := nodeDirs(t, n)
	cfg := wire.Config{Scheme: wire.RandomServer, X: 3}
	dc := newDurCluster(t, n, 11, dirs, store.SyncBatch)
	dc.runWorkload("k", cfg)
	want := make([]map[string]wire.SnapKey, n)
	for i, nd := range dc.nodes {
		want[i] = captureState(nd)
	}
	for _, d := range dc.durs {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}

	rc := newDurCluster(t, n, 11, dirs, store.SyncBatch)
	for i, nd := range rc.nodes {
		if got := captureState(nd); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("node %d state diverged after graceful cycle", i)
		}
		st := rc.durs[i].Stats()
		if st.Replayed != 0 {
			t.Errorf("node %d replayed %d records after graceful close, want 0", i, st.Replayed)
		}
		if st.SnapshotKeys == 0 && len(want[i]) > 0 {
			t.Errorf("node %d loaded no snapshot keys", i)
		}
	}
	rc.rerunThenCrash(11, dirs, "k", cfg)
}

// rerunThenCrash drives the workload on key once more, abandons the
// cluster as a crash would, and checks that a restart recovers every
// node's state. After a restart whose log held no record, new records
// must still number past the snapshot's cutoffs, or replay would skip
// them as already covered.
func (dc *durCluster) rerunThenCrash(seed uint64, dirs []string, key string, cfg wire.Config) {
	dc.t.Helper()
	dc.runWorkload(key, cfg)
	want := make([]map[string]wire.SnapKey, len(dc.nodes))
	for i, nd := range dc.nodes {
		want[i] = captureState(nd)
	}
	rc := newDurCluster(dc.t, len(dc.nodes), seed, dirs, store.SyncBatch)
	for i, nd := range rc.nodes {
		if got := captureState(nd); !reflect.DeepEqual(got, want[i]) {
			dc.t.Errorf("node %d lost writes acked after a restart:\n got %#v\nwant %#v", i, got, want[i])
		}
	}
}

// TestRecoverySnapshotWithoutWAL: a data dir holding only a snapshot
// (the WAL directory was lost) still recovers the snapshot state.
func TestRecoverySnapshotWithoutWAL(t *testing.T) {
	dirs := nodeDirs(t, 2)
	cfg := wire.Config{Scheme: wire.FullReplication}
	dc := newDurCluster(t, 2, 13, dirs, store.SyncBatch)
	dc.runWorkload("k", cfg)
	want := make([]map[string]wire.SnapKey, 2)
	for i, nd := range dc.nodes {
		want[i] = captureState(nd)
	}
	for _, d := range dc.durs {
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range dirs {
		if err := os.RemoveAll(filepath.Join(dir, "wal")); err != nil {
			t.Fatal(err)
		}
	}

	rc := newDurCluster(t, 2, 13, dirs, store.SyncBatch)
	for i, nd := range rc.nodes {
		if got := captureState(nd); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("node %d state diverged recovering from snapshot alone", i)
		}
	}
	rc.rerunThenCrash(13, dirs, "k", cfg)
}

// TestDurableMatchesVolatile pins the no-perturbation property: a
// durable cluster and a volatile cluster driven by the same seed and
// workload produce identical lookup answers, because logging records
// outcomes and never consumes RNG draws.
func TestDurableMatchesVolatile(t *testing.T) {
	for name, cfg := range schemeConfigs() {
		t.Run(name, func(t *testing.T) {
			const n = 4
			run := func(dirs []string) [][]string {
				dc := newDurCluster(t, n, 99, dirs, store.SyncBatch)
				for k := 0; k < 2; k++ {
					dc.runWorkload(fmt.Sprintf("key-%d", k), cfg)
				}
				var answers [][]string
				for k := 0; k < 2; k++ {
					for s := 0; s < n; s++ {
						answers = append(answers, dc.lookup(s, fmt.Sprintf("key-%d", k), 4))
					}
				}
				return answers
			}
			volatile := run(nil)
			durable := run(nodeDirs(t, n))
			if !reflect.DeepEqual(volatile, durable) {
				t.Errorf("durable lookups diverged from volatile:\n got %v\nwant %v", durable, volatile)
			}
		})
	}
}

// TestSnapshotPrunesSegments: segments sealed before a snapshot are
// deleted by it, bounding disk growth.
func TestSnapshotPrunesSegments(t *testing.T) {
	dirs := nodeDirs(t, 2)
	cfg := wire.Config{Scheme: wire.FullReplication}
	dc := newDurCluster(t, 2, 5, dirs, store.SyncBatch)
	for k := 0; k < 3; k++ {
		dc.runWorkload(fmt.Sprintf("key-%d", k), cfg)
		for _, d := range dc.durs {
			if err := d.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, dir := range dirs {
		segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 1 {
			t.Errorf("node %d has %d segments after snapshots, want 1 (the active one)", i, len(segs))
		}
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil {
			t.Fatal(err)
		}
		if len(snaps) > 2 {
			t.Errorf("node %d has %d snapshots, want <= 2", i, len(snaps))
		}
	}
}

// TestDurableNodeOwnsNoGoroutine: the WAL is committed by whoever waits
// on it, so a durable node without a snapshot interval runs nothing of
// its own — neither while open nor, leaked, after Close. (Goroutines of
// earlier tests may still be exiting, so only a rise is a failure.)
func TestDurableNodeOwnsNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	nd := New(0, stats.NewRNG(1))
	d, err := nd.OpenDurability(t.TempDir(), store.SyncBatch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply := nd.Handle(context.Background(), wire.StoreOne{Key: "k", Config: wire.Config{Scheme: wire.Hash, Y: 1}, Entry: "v"}); reply != (wire.Ack{}) {
		t.Fatalf("durable StoreOne: %+v", reply)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines with the log open, %d before", got, before)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Errorf("%d goroutines after Close, %d before", got, before)
	}
}

// TestDurableNodeKeepsOneLog: a node's log is one segment set, so after
// OpenDurability and a write wal/ holds exactly the active segment.
func TestDurableNodeKeepsOneLog(t *testing.T) {
	dir := t.TempDir()
	nd := New(0, stats.NewRNG(1))
	d, err := nd.OpenDurability(dir, store.SyncBatch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if reply := nd.Handle(context.Background(), wire.StoreOne{Key: "k", Config: wire.Config{Scheme: wire.Hash, Y: 1}, Entry: "v"}); reply != (wire.Ack{}) {
		t.Fatalf("durable StoreOne: %+v", reply)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("wal/ holds %v, want one active segment", segs)
	}
}

// TestOpenDurabilityRefusesOldLog: a data dir holding the segment sets
// an earlier version wrote, one per lock shard (wal/s<NN>-*.wal), is
// refused with an error naming one of them, before any record of the
// directory is replayed.
func TestOpenDurabilityRefusesOldLog(t *testing.T) {
	dir := t.TempDir()
	nd := New(0, stats.NewRNG(1))
	if _, err := nd.OpenDurability(dir, store.SyncBatch, 0, nil); err != nil {
		t.Fatal(err)
	}
	if reply := nd.Handle(context.Background(), wire.StoreOne{Key: "k", Config: wire.Config{Scheme: wire.Hash, Y: 1}, Entry: "v"}); reply != (wire.Ack{}) {
		t.Fatalf("durable StoreOne: %+v", reply)
	}
	// Crash, leaving the record in the log alone, beside an old segment:
	// magic, shard 7, first sequence 1, no record.
	old := filepath.Join(dir, "wal", "s07-00000000000000000001.wal")
	hdr := append([]byte("plswal01"), 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 1)
	if err := os.WriteFile(old, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	rn := New(0, stats.NewRNG(1))
	if _, err := rn.OpenDurability(dir, store.SyncBatch, 0, nil); err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("OpenDurability over an old log: %v, want an error naming %s", err, old)
	}
	if rn.store.Keys() != 0 {
		t.Fatalf("the refused open replayed %d keys", rn.store.Keys())
	}
}
