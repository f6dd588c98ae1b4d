package node

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

// placeIdentityOps is a seeded sequence of places under the schemes
// whose entries have deterministic homes: standalone Places of lists
// with 0..20 entries (one repeated entry in the longer ones), a
// re-place of a key that already holds entries, and one PlaceBatch
// through server 0 that mixes all four configs and re-places a key once
// more. Round-y places go to either of its two coordinators, the others
// to any server.
func placeIdentityOps(seed uint64, n int) (servers []int, msgs []wire.Message) {
	rng := stats.NewRNG(seed)
	cfgs := []struct {
		name string
		cfg  wire.Config
	}{
		{"round", wire.Config{Scheme: wire.RoundRobin, Y: 2, Coordinators: 2}},
		{"hash", wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7}},
		{"mp", wire.Config{Scheme: wire.MultiProbe, Y: 2, Seed: 11}},
		{"spread", wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7, ZoneSpread: true}},
	}
	list := func(key string, h int) []string {
		entries := make([]string, h)
		for i := range entries {
			entries[i] = fmt.Sprintf("%s-v%d", key, i+1)
		}
		if h > 4 {
			entries[h-2] = entries[rng.IntN(h-2)]
		}
		return entries
	}
	server := func(cfg wire.Config) int {
		if cfg.Scheme == wire.RoundRobin {
			return rng.IntN(cfg.Coordinators)
		}
		return rng.IntN(n)
	}
	for _, c := range cfgs {
		for k, h := range []int{0, 1 + rng.IntN(20), 16, 1 + rng.IntN(20)} {
			key := fmt.Sprintf("%s%d", c.name, k)
			servers = append(servers, server(c.cfg))
			msgs = append(msgs, wire.Place{Key: key, Config: c.cfg, Entries: list(key, h)})
		}
		key := c.name + "2"
		servers = append(servers, server(c.cfg))
		msgs = append(msgs, wire.Place{Key: key, Config: c.cfg, Entries: list(key+"again", 5)})
	}
	var batch wire.PlaceBatch
	for k := 4; k < 6; k++ {
		for _, c := range cfgs {
			key := fmt.Sprintf("%s%d", c.name, k)
			batch.Items = append(batch.Items, wire.Place{Key: key, Config: c.cfg, Entries: list(key, 1+rng.IntN(20))})
		}
	}
	batch.Items = append(batch.Items, wire.Place{Key: "hash1", Config: cfgs[1].cfg, Entries: list("hash1-batched", 7)})
	return append(servers, 0), append(msgs, batch)
}

// dumpPlaced renders what every node of the cluster holds: each key's
// full state as snapshots serialize it (entry set in internal order,
// Round-Robin positions and counters) and, for a durable cluster, each
// key's WAL records in the order the node appended them. Records are
// grouped by key and carry no sequence number: a batch may interleave
// the records of different keys, never the records of one. It closes
// the WALs.
func (lc *loopCluster) dumpPlaced(dirs []string) string {
	lc.t.Helper()
	var b strings.Builder
	for i, nd := range lc.nodes {
		keys := writeStates(&b, i, nd)
		if dirs == nil {
			continue
		}
		if err := lc.durs[i].WAL().Close(); err != nil {
			lc.t.Fatalf("close WAL %d: %v", i, err)
		}
		wal, err := store.OpenWAL(dirs[i], 1, store.SyncAlways, nil)
		if err != nil {
			lc.t.Fatalf("reopen WAL %d: %v", i, err)
		}
		type record struct {
			seq  uint64
			text string
		}
		byKey := make(map[string][]record)
		if _, err := wal.Replay(0, func(seq uint64, msg wire.Message) error {
			key := reflect.ValueOf(msg).FieldByName("Key").String()
			byKey[key] = append(byKey[key], record{seq, fmt.Sprintf("%T%+v", msg, msg)})
			return nil
		}); err != nil {
			lc.t.Fatalf("replay WAL %d: %v", i, err)
		}
		for _, k := range keys {
			sort.Slice(byKey[k], func(a, b int) bool { return byKey[k][a].seq < byKey[k][b].seq })
			for _, r := range byKey[k] {
				fmt.Fprintf(&b, "node %d wal %s %s\n", i, k, r.text)
			}
			delete(byKey, k)
		}
		if len(byKey) != 0 {
			lc.t.Fatalf("node %d logged records for keys it holds no state for: %v", i, byKey)
		}
	}
	return b.String()
}

// TestPlaceBroadcastMatchesPerCopyPlacement: the golden is what this
// test's seeded places left behind on the last commit at which Round-y,
// Hash-y and MultiProbe-y placed with an empty StoreBatch broadcast and
// one StoreOne per copy, and a PlaceBatch ran its items one after the
// other. Shipping the entry list in the broadcast, each receiver keeping
// its share, and sending a batch as one envelope per server must leave
// the same stored sets in the same internal order, the same Round-Robin
// positions and counters and the same WAL records per key on every
// node, volatile or durable. NODE_GEN_GOLDEN=1 rewrites the golden from
// the code under test.
func TestPlaceBroadcastMatchesPerCopyPlacement(t *testing.T) {
	const n, golden = 4, "testdata/golden-place-state.txt"
	tp, err := topo.Uniform(2, 1, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	run := func(dirs []string) string {
		lc := newLoopCluster(t, n, dirs, store.SyncAlways)
		for _, nd := range lc.nodes {
			nd.SetTopology(tp)
		}
		servers, msgs := placeIdentityOps(21, n)
		for i, msg := range msgs {
			reply, err := lc.client.Call(context.Background(), servers[i], msg)
			if err != nil {
				t.Fatalf("%T to server %d: %v", msg, servers[i], err)
			}
			switch r := reply.(type) {
			case wire.Ack:
				if r.Err != "" {
					t.Fatalf("%T to server %d: %s", msg, servers[i], r.Err)
				}
			case wire.BatchAck:
				for j, e := range r.Errs {
					if e != "" {
						t.Fatalf("batch item %d: %s", j, e)
					}
				}
			default:
				t.Fatalf("%T to server %d: unexpected reply %#v", msg, servers[i], reply)
			}
		}
		return lc.dumpPlaced(dirs)
	}
	checkGolden(t, golden, "== volatile\n"+run(nil)+"== durable\n"+run(nodeDirs(t, n)), "per-copy placement")
}

// TestEmptyPlaceEntryOverTCP: over sockets nothing recovers a handler's
// panic, so a placed list with an empty entry must be refused before it
// reaches the entry set — by the initial server and by a server handed
// the StoreBatch directly — and every server must still be serving
// afterwards.
func TestEmptyPlaceEntryOverTCP(t *testing.T) {
	const n, wantErr = 3, "node: place with empty entry"
	lc := newLoopCluster(t, n, nil, 0)
	bad := []string{"a", ""}
	for _, cfg := range []wire.Config{{Scheme: wire.FullReplication}, {Scheme: wire.Hash, Y: 2, Seed: 7}} {
		for _, msg := range []wire.Message{
			wire.Place{Key: "k", Config: cfg, Entries: bad},
			wire.StoreBatch{Key: "k", Config: cfg, Entries: bad},
		} {
			reply, err := lc.client.Call(context.Background(), 1, msg)
			if ack, ok := reply.(wire.Ack); err != nil || !ok || ack.Err != wantErr {
				t.Fatalf("%T under %v: reply %#v, %v; want the ack %q", msg, cfg, reply, err, wantErr)
			}
		}
	}
	for s := 0; s < n; s++ {
		lc.mustAck(s, wire.Ping{})
		if got := lc.nodes[s].LocalLen("k"); got != 0 {
			t.Errorf("server %d stored %d entries of a refused place", s, got)
		}
	}
}

// TestPlacedShareIsCopiedOutOfTheMessage: every string of a decoded
// message views the one buffer Decode copied it into, and a Round-y or
// Hash-y server keeps y/n of a placed list — so the key and the entries
// it stores must be copies, or each key would hold its whole StoreBatch
// (and every key of a StoreBatches its whole envelope) in memory for as
// long as one entry of it lives.
func TestPlacedShareIsCopiedOutOfTheMessage(t *testing.T) {
	const n = 4
	for _, cfg := range []wire.Config{{Scheme: wire.RoundRobin, Y: 2}, {Scheme: wire.Hash, Y: 2, Seed: 7}} {
		entries := make([]string, 16)
		for i := range entries {
			entries[i] = fmt.Sprintf("entry-%02d", i)
		}
		msg, err := wire.Decode(wire.Encode(wire.StoreBatches{Items: []wire.StoreBatch{
			{Key: "k", Config: cfg, Entries: entries},
			{Key: "other", Config: cfg, Entries: entries[:1]},
		}}))
		if err != nil {
			t.Fatal(err)
		}
		sb := msg.(wire.StoreBatches).Items[0]
		lo := uintptr(unsafe.Pointer(unsafe.StringData(sb.Key)))
		last := sb.Entries[len(sb.Entries)-1]
		hi := uintptr(unsafe.Pointer(unsafe.StringData(last))) + uintptr(len(last))
		inMessage := func(s string) bool {
			p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
			return p >= lo && p < hi
		}
		if !inMessage(sb.Entries[3]) {
			t.Fatal("decoded strings do not share a buffer; test proves nothing")
		}

		nd := New(1, stats.NewRNG(1))
		nd.Attach(transport.NewInproc(n))
		if ack := nd.Handle(context.Background(), msg).(wire.BatchAck); ack.Errs[0] != "" {
			t.Fatalf("%v: %s", cfg, ack.Errs[0])
		}
		ks, ok := nd.store.Get("k")
		if !ok {
			t.Fatalf("%v: key not stored", cfg)
		}
		ks.View(func(st *store.State) {
			if st.Set.Len() == 0 || st.Set.Len() == len(entries) {
				t.Fatalf("%v: server keeps %d of %d entries, want a strict share", cfg, st.Set.Len(), len(entries))
			}
			if inMessage(st.Key) {
				t.Errorf("%v: the stored key views the message", cfg)
			}
			for _, v := range st.Set.Members() {
				if inMessage(string(v)) {
					t.Errorf("%v: stored entry %s views the message", cfg, v)
				}
			}
		})
	}
}
