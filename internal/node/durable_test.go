package node

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
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
	tr    *transport.Chaos
}

// newDurCluster builds n nodes seeded from one root seed. dirs[i], when
// non-empty, makes node i durable under that directory; an empty string
// leaves it volatile. Node RNG split order matches across calls, so two
// clusters with the same seed consume identical random streams.
func newDurCluster(t *testing.T, n int, seed uint64, dirs []string, policy store.SyncPolicy) *durCluster {
	t.Helper()
	rng := stats.NewRNG(seed)
	dc := &durCluster{t: t, tr: transport.NewChaos(n, stats.NewRNG(seed))}
	for i := 0; i < n; i++ {
		nd := New(i, rng.Split())
		var d *Durability
		if i < len(dirs) && dirs[i] != "" {
			var err error
			d, err = nd.OpenDurability(dirs[i], policy, 0, telemetry.NewWALMetrics(telemetry.NewRegistry()))
			if err != nil {
				t.Fatalf("OpenDurability(node %d): %v", i, err)
			}
		}
		dc.attach(i, nd)
		dc.nodes = append(dc.nodes, nd)
		dc.durs = append(dc.durs, d)
	}
	return dc
}

// chaosHost is the membership host of a node the test network reaches
// by slot: every view's caller is the network itself, which numbers the
// servers as the views do while slots are only appended.
type chaosHost struct{ tr *transport.Chaos }

func (h chaosHost) Apply(View) transport.Caller { return h.tr }

// attach binds nd to slot i of the network, as the member of rank i in
// a view of the slots' addresses (sim://0 ...), keeping its topology.
func (dc *durCluster) attach(i int, nd *Node) {
	addrs := make([]string, dc.tr.NumServers())
	for s := range addrs {
		addrs[s] = fmt.Sprintf("sim://%d", s)
	}
	nd.SetHost(chaosHost{dc.tr}, View{Addrs: addrs, Self: i, Topology: nd.View().Topology})
	dc.tr.Bind(i, nd)
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
// path checkpoints use.
func captureState(n *Node) map[string]wire.SnapKey {
	out := make(map[string]wire.SnapKey)
	n.store.Range(func(key string, ks *store.KeyState) bool {
		ks.View(func(st *store.State) { out[key] = snapKeyOf(key, st) })
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
		"round":      {Scheme: wire.RoundRobin, Y: 2},
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
// crash (no graceful shutdown, no final checkpoint — the WAL tail is
// all there is), a restarted cluster holds state identical to the moment of
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
				if st.Outcomes == 0 && len(want[i]) > 0 {
					t.Errorf("node %d replayed no outcome records despite %d keys", i, len(want[i]))
				}
			}
		})
	}
}

// TestRecoverySnapshotPlusTail covers the mixed path: a mid-workload
// checkpoint, more traffic, then a crash. Replay replaces each key's
// state at its checkpoint record and applies the tail on top.
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

// TestRecoveryGracefulCloseLeavesNoTail: after Close (final checkpoint
// + WAL flush), reopening replays no outcome record — the log holds
// the checkpoint's key states alone, and recovery rebuilds every key
// from them.
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
		if st.Outcomes != 0 {
			t.Errorf("node %d replayed %d outcome records after graceful close, want 0", i, st.Outcomes)
		}
		if st.KeyStates != len(want[i]) {
			t.Errorf("node %d replayed %d key states, want %d", i, st.KeyStates, len(want[i]))
		}
	}
	rc.rerunThenCrash(11, dirs, "k", cfg)
}

// rerunThenCrash drives the workload on key once more, abandons the
// cluster as a crash would, and checks that a restart recovers every
// node's state: the records written after a restart must replay after
// the checkpoint the restart logged.
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

// TestSnapshotPrunesSegments: segments sealed before a checkpoint are
// deleted by it, bounding disk growth, and the log is all the data dir
// holds.
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
			t.Errorf("node %d has %d segments after checkpoints, want 1 (the active one)", i, len(segs))
		}
		if all, _ := filepath.Glob(filepath.Join(dir, "*")); len(all) != 1 || filepath.Base(all[0]) != "wal" {
			t.Errorf("node %d data dir holds %v, want wal/ alone", i, all)
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

// TestRecoveryRefusesAPlswal02Log: a segment an earlier version wrote
// under the plswal02 magic, whose places are a reset and one record per
// kept entry, is refused with an error naming it, and left as it was.
func TestRecoveryRefusesAPlswal02Log(t *testing.T) {
	refusesOldLog(t, "plswal02", wire.Encode(wire.WalConfig{Key: "k", Config: wire.Config{Scheme: wire.FullReplication}}))
}

// TestRecoveryRefusesAPlswal03Log: a segment an earlier version wrote
// under the plswal03 magic, whose key configs carry a Round-y
// coordinator count, is refused with an error naming it, and left as
// it was.
func TestRecoveryRefusesAPlswal03Log(t *testing.T) {
	// A Round-2 WalConfig in that layout: a coordinator count of 1
	// before the config's last field, ZoneSpread.
	rec := wire.Encode(wire.WalConfig{Key: "k", Config: wire.Config{Scheme: wire.RoundRobin, Y: 2}})
	rec = append(rec[:len(rec)-1:len(rec)-1], 1, rec[len(rec)-1])
	refusesOldLog(t, "plswal03", rec)
}

// refusesOldLog writes one segment under magic holding record and
// checks that opening the node's durability refuses it by name and
// format, replaying nothing and leaving the segment as it was.
func refusesOldLog(t *testing.T, magic string, record []byte) {
	t.Helper()
	dir := t.TempDir()
	old := filepath.Join(dir, "wal", "00000000000000000001.wal")
	seg := append([]byte(magic), 0, 0, 0, 0, 0, 0, 0, 1)
	seg = appendTestFrame(seg, 1, record)
	if err := os.MkdirAll(filepath.Dir(old), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, seg, 0o644); err != nil {
		t.Fatal(err)
	}
	rn := New(0, stats.NewRNG(1))
	if _, err := rn.OpenDurability(dir, store.SyncBatch, 0, nil); err == nil || !strings.Contains(err.Error(), old) || !strings.Contains(err.Error(), magic) {
		t.Fatalf("OpenDurability over a %s log: %v, want an error naming %s and its format", magic, err, old)
	}
	if rn.store.Keys() != 0 {
		t.Fatalf("the refused open replayed %d keys", rn.store.Keys())
	}
	if got, err := os.ReadFile(old); err != nil || !bytes.Equal(got, seg) {
		t.Fatalf("the refused segment changed (%v)", err)
	}
}

// appendTestFrame appends one WAL frame holding payload, as the log
// writes it: length, CRC-32C over sequence and payload, sequence,
// payload.
func appendTestFrame(buf []byte, seq uint64, payload []byte) []byte {
	var hdr [16]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint64(hdr[8:16], seq)
	buf = append(append(buf, hdr[:]...), payload...)
	frame := buf[len(buf)-len(payload)-16:]
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], crc32.MakeTable(crc32.Castagnoli)))
	return buf
}

// walFrames returns the offset and the decoded record of every frame
// in a segment image, failing the test on a frame that does not parse.
func walFrames(t *testing.T, seg []byte) (offs []int, recs []wire.Message) {
	t.Helper()
	for off := 16; off < len(seg); {
		n := 16 + int(binary.BigEndian.Uint32(seg[off:]))
		msg, err := wire.Decode(seg[off+16 : off+n])
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		offs, recs = append(offs, off), append(recs, msg)
		off += n
	}
	return offs, recs
}

// newestSegment returns the path and the bytes of a data dir's newest
// WAL segment.
func newestSegment(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal", "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments %v (%v)", segs, err)
	}
	data, err := os.ReadFile(segs[len(segs)-1])
	if err != nil {
		t.Fatal(err)
	}
	return segs[len(segs)-1], data
}

// TestRecoveryRefusesAnUndecodableRecord: a record that passes its CRC
// but does not decode was written whole — by another version, or
// through a codec bug — so it is no torn tail. Recovery fails naming
// its segment and offset, and truncates nothing: the acked records
// behind it stay on disk.
func TestRecoveryRefusesAnUndecodableRecord(t *testing.T) {
	dirs := nodeDirs(t, 1)
	cfg := wire.Config{Scheme: wire.FullReplication}
	dc := newDurCluster(t, 1, 3, dirs, store.SyncBatch)
	dc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: []string{"a"}})
	dc.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: "b"})
	dc.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: "c"})
	if err := dc.durs[0].WAL().Close(); err != nil {
		t.Fatal(err)
	}
	path, seg := newestSegment(t, dirs[0])
	offs, recs := walFrames(t, seg)
	bad := -1
	for i, rec := range recs {
		if rec == (wire.WalStore{Key: "k", Entry: "b"}) {
			bad = offs[i]
		}
	}
	if bad < 0 {
		t.Fatalf("no record stores b in %v", recs)
	}
	// Give b's record a kind this version does not know, CRC intact.
	n := 16 + int(binary.BigEndian.Uint32(seg[bad:]))
	payload := append([]byte{0xff}, seg[bad+17:bad+n]...)
	seg = append(appendTestFrame(bytes.Clone(seg[:bad]), binary.BigEndian.Uint64(seg[bad+8:]), payload), seg[bad+n:]...)
	if err := os.WriteFile(path, seg, 0o644); err != nil {
		t.Fatal(err)
	}

	rn := New(0, stats.NewRNG(3))
	d, err := rn.OpenDurability(dirs[0], store.SyncBatch, 0, nil)
	if err == nil {
		t.Fatalf("recovered %v with %+v, want an error naming %s at offset %d", rn.LocalSet("k"), d.Stats(), path, bad)
	}
	if want := fmt.Sprintf("%s: the record at offset %d ", path, bad); !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenDurability: %v, want it to name %q", err, want)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, seg) {
		t.Fatalf("the refused segment changed (%v)", err)
	}
}

// TestRecoveryOfATornPlaceIsAtomic: a place replaces a key's whole
// entry list, and a log torn anywhere inside the second of two places
// recovers the key exactly as the first or the second left it, never
// part of the second's share.
func TestRecoveryOfATornPlaceIsAtomic(t *testing.T) {
	dirs := nodeDirs(t, 1)
	cfg := wire.Config{Scheme: wire.Hash, Y: 1, Seed: 11}
	dc := newDurCluster(t, 1, 5, dirs, store.SyncBatch)
	dc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: []string{"a1", "a2", "a3"}})
	_, seg := newestSegment(t, dirs[0])
	afterA := len(seg)
	wantA := captureState(dc.nodes[0])["k"]
	dc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: []string{"b1", "b2", "b3", "b4"}})
	wantB := captureState(dc.nodes[0])["k"]
	path, seg := newestSegment(t, dirs[0])
	if len(seg) <= afterA {
		t.Fatalf("the second place logged nothing past offset %d", afterA)
	}
	for cut := afterA; cut <= len(seg); cut++ {
		dir := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rn := New(0, stats.NewRNG(5))
		if _, err := rn.OpenDurability(filepath.Dir(dir), store.SyncNever, 0, nil); err != nil {
			t.Fatalf("log cut at %d of %d: %v", cut, len(seg), err)
		}
		got := captureState(rn)["k"]
		if !reflect.DeepEqual(got, wantA) && !reflect.DeepEqual(got, wantB) {
			t.Fatalf("log cut at %d of %d (the second place from %d) recovered %+v,\nwant the first place's %+v\nor the second's %+v", cut, len(seg), afterA, got, wantA, wantB)
		}
	}
}

// TestRecoveryOfATornRoundPlaceKeepsPositionsApart: a Round-y place
// logs the sequencer's share, then its counters. A log torn between the
// two recovers the new list with no counters, and the next add rebuilds
// them from the positions held instead of reusing position 0.
func TestRecoveryOfATornRoundPlaceKeepsPositionsApart(t *testing.T) {
	dirs := nodeDirs(t, 1)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 1}
	dc := newDurCluster(t, 1, 5, dirs, store.SyncBatch)
	dc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: []string{"a1", "a2", "a3"}})
	_, seg := newestSegment(t, dirs[0])
	afterA := len(seg)
	dc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: []string{"b1", "b2", "b3", "b4"}})
	path, seg := newestSegment(t, dirs[0])
	for cut := afterA; cut <= len(seg); cut++ {
		dir := filepath.Join(t.TempDir(), "wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(path)), seg[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rc := newDurCluster(t, 1, 5, []string{filepath.Dir(dir)}, store.SyncNever)
		rc.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: "c"})
		at := make(map[int]string)
		for v, p := range rc.nodes[0].Positions("k") {
			if at[p] != "" {
				t.Fatalf("log cut at %d of %d: %s and %s share position %d", cut, len(seg), at[p], v, p)
			}
			at[p] = v
		}
	}
}

// TestOpenDurabilityRefusesSnapshotFiles: a data dir holding the
// snapshot files an earlier version wrote beside its log is refused
// with an error naming one of them, before anything is replayed.
func TestOpenDurabilityRefusesSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "snap-0000000000000042.snap")
	if err := os.WriteFile(old, []byte("plssnp01"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(0, stats.NewRNG(1)).OpenDurability(dir, store.SyncBatch, 0, nil); err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("OpenDurability beside a snapshot file: %v, want an error naming %s", err, old)
	}
}

// TestRecoveryReportsADamagedCheckpoint: a byte flipped inside the
// newest checkpoint loses nothing silently. The log ends at the damaged
// record, so recovery either holds every acked entry or reports the
// bytes it dropped.
func TestRecoveryReportsADamagedCheckpoint(t *testing.T) {
	dirs := nodeDirs(t, 1)
	cfg := wire.Config{Scheme: wire.FullReplication}
	dc := newDurCluster(t, 1, 3, dirs, store.SyncBatch)
	dc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: []string{"a"}})
	for _, e := range []string{"b", "c"} {
		if err := dc.durs[0].SnapshotNow(); err != nil {
			t.Fatal(err)
		}
		dc.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: e})
	}
	if err := dc.durs[0].WAL().Close(); err != nil {
		t.Fatal(err)
	}
	// The newest checkpoint is the first record of the newest segment:
	// flip a byte of its payload, past the segment and frame headers.
	newest, data := newestSegment(t, dirs[0])
	const payload = 16 + 16
	if len(data) <= payload+1 || data[payload] != byte(wire.KindSnapKey) {
		t.Fatalf("%s does not start with a checkpoint record", newest)
	}
	data[payload+1] ^= 0x40
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rc := newDurCluster(t, 1, 3, dirs, store.SyncBatch)
	st := rc.durs[0].Stats()
	set := rc.nodes[0].LocalSet("k")
	t.Logf("recovered %v with %+v", set.Members(), st)
	for _, e := range []string{"a", "b", "c"} {
		if !set.Contains(e) && st.WAL.TruncatedBytes == 0 {
			t.Errorf("acked %q lost with no truncation reported: %+v", e, st)
		}
	}
}

// TestDurableCheckpointRacingUpdates: checkpoints taken while writers
// mutate Round-Robin positions and counters, RandomServer-x system
// counts and Hash-y sets lose nothing — each key's checkpoint record is
// logged under the key lock, between the records it reflects and the
// ones it does not. A crash after the racing (the WAL closed without a
// final checkpoint) recovers the live state exactly. Two restarts with
// no writes, then more writes and a crash, recover it too: new records
// number past the checkpoints the restarts logged.
func TestDurableCheckpointRacingUpdates(t *testing.T) {
	// Holders (below) keep each key's lock for longer than the 1 ms
	// after which a waiting writer turns the mutex to FIFO handoff, so
	// whoever unlocks a key — a checkpoint too — passes it to a waiting
	// writer and yields to it. With one P the unlocker then waits until
	// that writer blocks, after its update has been logged: a checkpoint
	// record logged outside the key lock would land after a mutation it
	// does not reflect.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, seed = 4, 21
	dirs := nodeDirs(t, n)
	// SyncNever keeps the writers' acks cheap; checkpoints fsync anyway.
	dc := newDurCluster(t, n, seed, dirs, store.SyncNever)
	cfgs := []wire.Config{
		{Scheme: wire.RoundRobin, Y: 2},
		{Scheme: wire.RandomServer, X: 3},
		{Scheme: wire.Hash, Y: 2, Seed: 9},
	}
	for k, cfg := range cfgs {
		dc.mustAck(0, wire.Place{Key: fmt.Sprint("racing-", k), Config: cfg, Entries: []string{"p0", "p1", "p2", "p3"}})
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	run := func(op func(i int) bool) {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if !op(i) {
					return
				}
			}
		}()
	}
	for g, k := range []int{0, 0, 0, 1, 1, 1, 2, 2, 2} {
		key, cfg := fmt.Sprint("racing-", k), cfgs[k]
		run(func(i int) bool {
			// Add a fresh entry, then delete the one added before it.
			var msg wire.Message = wire.Add{Key: key, Config: cfg, Entry: fmt.Sprint("e", g, "-", i/2)}
			if i%2 == 1 {
				if i < 3 {
					return true
				}
				msg = wire.Delete{Key: key, Config: cfg, Entry: fmt.Sprint("e", g, "-", i/2-1)}
			}
			if reply, err := dc.tr.Call(context.Background(), 0, msg); err != nil || reply != (wire.Ack{}) {
				t.Errorf("%T on %s: %+v, %v", msg, key, reply, err)
				return false
			}
			return true
		})
	}
	for _, nd := range dc.nodes {
		for k := range cfgs {
			ks := nd.store.GetOrCreate(fmt.Sprint("racing-", k), cfgs[k])
			run(func(int) bool {
				ks.View(func(*store.State) { time.Sleep(2 * time.Millisecond) })
				return true
			})
		}
	}
	for range 30 {
		for i, d := range dc.durs {
			if err := d.SnapshotNow(); err != nil {
				t.Errorf("checkpoint of node %d: %v", i, err)
			}
		}
	}
	close(stop)
	writers.Wait()
	want := make([]map[string]wire.SnapKey, n)
	for i, nd := range dc.nodes {
		want[i] = captureState(nd)
		if err := dc.durs[i].WAL().Close(); err != nil {
			t.Fatal(err)
		}
	}
	rc := newDurCluster(t, n, seed, dirs, store.SyncBatch)
	for i, nd := range rc.nodes {
		if got := captureState(nd); !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("node %d diverged after checkpoints raced updates:\n got %#v\nwant %#v", i, got, want[i])
		}
	}
	// Two restarts with no writes in between, each a crash.
	for range 2 {
		rc = newDurCluster(t, n, seed, dirs, store.SyncBatch)
	}
	rc.rerunThenCrash(seed, dirs, "racing-0", cfgs[0])
}
