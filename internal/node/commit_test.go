package node

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// fsyncs returns each durable node's wal.fsyncs count.
func fsyncs(durs []*Durability) []int64 {
	out := make([]int64, len(durs))
	for i, d := range durs {
		out[i] = d.metrics.Fsyncs.Value()
	}
	return out
}

// TestDurableBatchCommitsOnce: a node waits for its log once per
// request the network delivers it, never per key and never for a
// message it sends itself, so a PlaceBatch or an AddBatch of k Round-2
// and Hash-2 keys grows each node's wal.fsyncs by at most the requests
// it handled that did not come from itself, and a PlaceBatch costs
// each node as many commits at 32 keys as at 16.
func TestDurableBatchCommitsOnce(t *testing.T) {
	const n = 4
	placed := make(map[int][]int64)
	for _, k := range []int{16, 32} {
		dc := newDurCluster(t, n, 7, nodeDirs(t, n), store.SyncBatch)
		metrics := telemetry.NewNodeMetrics(telemetry.NewRegistry(), n)
		for _, nd := range dc.nodes {
			nd.Instrument(metrics)
		}
		// requests returns each node's messages handled, less those
		// it sent itself.
		requests := func() []int64 {
			out := make([]int64, n)
			for s, nd := range dc.nodes {
				out[s] = nd.Handled() - metrics.LocalDeliveries.At(s).Value()
			}
			return out
		}
		var places []wire.Place
		var adds []wire.Add
		for i := 0; i < k; i++ {
			key := fmt.Sprintf("key-%d", i)
			cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
			if i%2 == 1 {
				cfg = wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7}
			}
			places = append(places, wire.Place{Key: key, Config: cfg, Entries: []string{key + "-a", key + "-b", key + "-c"}})
			adds = append(adds, wire.Add{Key: key, Config: cfg, Entry: key + "-added"})
		}
		for _, msg := range []wire.Message{wire.PlaceBatch{Items: places}, wire.AddBatch{Items: adds}} {
			beforeF, beforeR := fsyncs(dc.durs), requests()
			reply, err := dc.tr.Call(context.Background(), 0, msg)
			if ack, ok := reply.(wire.BatchAck); err != nil || !ok || ack.Err != "" || len(ack.Errs) != k {
				t.Fatalf("%d keys, %T: %+v, %v", k, msg, reply, err)
			} else if slices.ContainsFunc(ack.Errs, func(e string) bool { return e != "" }) {
				t.Fatalf("%d keys, %T: item errors %q", k, msg, ack.Errs)
			}
			cost, reqs := fsyncs(dc.durs), requests()
			for s := range cost {
				cost[s] -= beforeF[s]
				if reqs[s] -= beforeR[s]; cost[s] > reqs[s] {
					t.Errorf("%d keys, %T: node %d committed its log %d times for %d requests", k, msg, s, cost[s], reqs[s])
				}
			}
			if _, ok := msg.(wire.PlaceBatch); ok {
				placed[k] = cost
			}
		}
	}
	if !reflect.DeepEqual(placed[16], placed[32]) {
		t.Errorf("PlaceBatch commits by node: %v at 16 keys, %v at 32", placed[16], placed[32])
	}
}

// recoveredPositions reopens a copied data directory on a fresh node
// and returns the Round-Robin positions it recovered for key.
func recoveredPositions(t *testing.T, dir, key string) map[entry.Entry]int {
	t.Helper()
	nd := New(0, stats.NewRNG(1))
	d, err := nd.OpenDurability(dir, store.SyncBatch, 0, nil)
	if err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	defer d.WAL().Close()
	return nd.Positions(key)
}

// TestDurableSelfDeliveryCommitsWithItsRequest: deleting v3 (positions
// 3, on servers 3 and 0) through coordinator 0 with the head at
// position 0 has the coordinator send itself the RoundRemove, the
// Migrate of its own copy, and — once server 3's Migrate arrives — the
// RemoveAt of v0's original copy. None of those messages commits the
// coordinator's log: its data directory, copied as a kill would leave
// it while the RoundRemove leaves for server 1, still holds v3. The
// coordinator commits once during the delete, and a copy taken on
// receipt of the ack recovers the delete: v3 gone, v0 moved into its
// position.
func TestDurableSelfDeliveryCommitsWithItsRequest(t *testing.T) {
	const n = 4
	dirs := nodeDirs(t, n)
	lc := newLoopCluster(t, n, dirs, store.SyncBatch)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	lc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6"}})
	placed := map[entry.Entry]int{"v0": 0, "v3": 3, "v4": 4}
	if got := lc.nodes[0].Positions("k"); !reflect.DeepEqual(got, placed) {
		t.Fatalf("coordinator positions after the place %v, want %v", got, placed)
	}

	var killedMidway string
	lc.log.take()
	lc.log.onCall(func(c peerCall) {
		if c == (peerCall{0, 1, wire.KindRoundRemove}) {
			killedMidway = copyDir(t, dirs[0])
		}
	})
	before := fsyncs(lc.durs)[0]
	lc.mustAck(0, wire.Delete{Key: "k", Config: cfg, Entry: "v3"})
	killedAfterAck := copyDir(t, dirs[0])
	lc.log.onCall(nil)
	commits := fsyncs(lc.durs)[0] - before

	lc.wantPeerCalls("delete",
		peerCall{0, 1, wire.KindRoundRemove},
		peerCall{0, 2, wire.KindRoundRemove},
		peerCall{0, 3, wire.KindRoundRemove},
		peerCall{3, 0, wire.KindMigrate},
		peerCall{0, 1, wire.KindRemoveAt},
	)
	if commits != 1 {
		t.Errorf("the coordinator committed its log %d times during the delete, want 1", commits)
	}
	if killedMidway == "" || killedAfterAck == "" {
		t.Fatal("no copy of the coordinator's data directory midway through the delete, or at its ack")
	}
	if got := recoveredPositions(t, killedMidway, "k"); !reflect.DeepEqual(got, placed) {
		t.Errorf("killed as the RoundRemove left for server 1: recovered %v, want the placed %v (a message the coordinator sent itself committed its log)", got, placed)
	}
	deleted := map[entry.Entry]int{"v0": 3, "v4": 4}
	if got := lc.nodes[0].Positions("k"); !reflect.DeepEqual(got, deleted) {
		t.Errorf("coordinator positions after the delete %v, want %v", got, deleted)
	}
	if got := recoveredPositions(t, killedAfterAck, "k"); !reflect.DeepEqual(got, deleted) {
		t.Errorf("killed after the ack: recovered %v, want %v", got, deleted)
	}
}
