package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/strategy"
)

// TestPlaceBatchThenLookupBatch drives the whole batch path across keys
// managed by different strategies: grouping by config, envelope
// routing, server-side per-item execution, and per-key lookup results.
func TestPlaceBatchThenLookupBatch(t *testing.T) {
	svc, _ := newService(t, 6,
		core.WithDefaultConfig(core.Config{Scheme: core.RandomServer, X: 10}),
		core.WithKeyConfig("full", core.Config{Scheme: core.FullReplication}),
		core.WithKeyConfig("fixed", core.Config{Scheme: core.Fixed, X: 10}),
		core.WithKeyConfig("round", core.Config{Scheme: core.RoundRobin, Y: 2}),
		core.WithKeyConfig("hash", core.Config{Scheme: core.Hash, Y: 2, Seed: 9}),
		core.WithKeyConfig("part", core.Config{Scheme: core.KeyPartition}),
	)
	ctx := context.Background()
	keys := []string{"full", "fixed", "round", "hash", "part", "rs-a", "rs-b"}
	items := make([]core.PlaceItem, len(keys))
	for i, k := range keys {
		items[i] = core.PlaceItem{Key: k, Entries: entry.Synthetic(30)}
	}
	for i, err := range svc.PlaceBatch(ctx, items) {
		if err != nil {
			t.Fatalf("PlaceBatch[%s]: %v", keys[i], err)
		}
	}
	outcomes := svc.PartialLookupBatch(ctx, keys, 8)
	if len(outcomes) != len(keys) {
		t.Fatalf("got %d outcomes for %d keys", len(outcomes), len(keys))
	}
	for i, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("lookup %s: %v", keys[i], o.Err)
		}
		if !o.Result.Satisfied(8) {
			t.Fatalf("lookup %s got %d entries, want >= 8", keys[i], len(o.Result.Entries))
		}
		if o.Result.Contacted < 1 {
			t.Fatalf("lookup %s contacted %d servers", keys[i], o.Result.Contacted)
		}
	}
	// Replicated schemes must answer a batched lookup from one probe,
	// like their single-key rule.
	for i, k := range keys[:2] {
		if got := outcomes[i].Result.Contacted; got != 1 {
			t.Fatalf("%s batched lookup contacted %d servers, want 1", k, got)
		}
	}
}

// TestPlaceBatchMatchesSequentialPlacement verifies the core batch
// guarantee: a batched place leaves exactly the same system state a
// sequential place would, because each item executes server-side as a
// standalone message.
func TestPlaceBatchMatchesSequentialPlacement(t *testing.T) {
	cfg := core.Config{Scheme: core.Fixed, X: 5}
	entries := entry.Synthetic(20)
	keys := []string{"a", "b", "c"}

	seqSvc, seqCl := newService(t, 4, core.WithDefaultConfig(cfg))
	batchSvc, batchCl := newService(t, 4, core.WithDefaultConfig(cfg))
	ctx := context.Background()

	for _, k := range keys {
		if err := seqSvc.Place(ctx, k, entries); err != nil {
			t.Fatal(err)
		}
	}
	items := make([]core.PlaceItem, len(keys))
	for i, k := range keys {
		items[i] = core.PlaceItem{Key: k, Entries: entries}
	}
	for i, err := range batchSvc.PlaceBatch(ctx, items) {
		if err != nil {
			t.Fatalf("PlaceBatch[%s]: %v", keys[i], err)
		}
	}
	// Fixed-x is deterministic given the entry order: every server
	// stores the first x entries, so the snapshots must match exactly.
	for _, k := range keys {
		seq, batch := seqCl.Snapshot(k), batchCl.Snapshot(k)
		for s := range seq {
			if seq[s].String() != batch[s].String() {
				t.Fatalf("key %s server %d: sequential %v != batched %v", k, s, seq[s], batch[s])
			}
		}
	}
}

// TestAddBatchPerItemErrors checks that one bad item fails alone while
// the rest of the envelope lands.
func TestAddBatchPerItemErrors(t *testing.T) {
	svc, cl := newService(t, 4, core.WithDefaultConfig(core.Config{Scheme: core.FullReplication}))
	ctx := context.Background()
	if err := svc.Place(ctx, "k", entry.Synthetic(5)); err != nil {
		t.Fatal(err)
	}
	errs := svc.AddBatch(ctx, []core.AddItem{
		{Key: "k", Entry: "fresh1"},
		{Key: "k", Entry: ""}, // invalid: must fail alone
		{Key: "k", Entry: "fresh2"},
	})
	if errs[0] != nil || errs[2] != nil {
		t.Fatalf("valid items failed: %v / %v", errs[0], errs[2])
	}
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "invalid empty entry") {
		t.Fatalf("invalid item error = %v", errs[1])
	}
	set := cl.Node(0).LocalSet("k")
	if !set.Contains("fresh1") || !set.Contains("fresh2") {
		t.Fatalf("batched adds missing from node 0: %v", set)
	}
}

// TestLookupBatchSurvivesFailures fails servers and verifies batched
// lookups still walk to live ones, per key, like single lookups do.
func TestLookupBatchSurvivesFailures(t *testing.T) {
	svc, cl := newService(t, 6, core.WithDefaultConfig(core.Config{Scheme: core.RandomServer, X: 20}))
	ctx := context.Background()
	keys := []string{"x", "y", "z"}
	items := make([]core.PlaceItem, len(keys))
	for i, k := range keys {
		items[i] = core.PlaceItem{Key: k, Entries: entry.Synthetic(25)}
	}
	for i, err := range svc.PlaceBatch(ctx, items) {
		if err != nil {
			t.Fatalf("place %s: %v", keys[i], err)
		}
	}
	cl.Fail(0)
	cl.Fail(3)
	for i, o := range svc.PartialLookupBatch(ctx, keys, 10) {
		if o.Err != nil {
			t.Fatalf("lookup %s with failures: %v", keys[i], o.Err)
		}
		if !o.Result.Satisfied(10) {
			t.Fatalf("lookup %s got %d entries, want >= 10", keys[i], len(o.Result.Entries))
		}
	}
	// With every server down, all keys must report ErrNoLiveServers.
	for s := 0; s < 6; s++ {
		cl.Fail(s)
	}
	for i, o := range svc.PartialLookupBatch(ctx, keys, 10) {
		if !errors.Is(o.Err, strategy.ErrNoLiveServers) {
			t.Fatalf("lookup %s on dead cluster: err = %v", keys[i], o.Err)
		}
	}
}

// TestBatchOverTCP runs the batch envelopes over real sockets: the
// codec, framing, and server dispatch must carry them end to end.
func TestBatchOverTCP(t *testing.T) {
	svc, _ := newWiredService(t, 4, core.WithSeed(5),
		core.WithDefaultConfig(core.Config{Scheme: core.RandomServer, X: 10}))
	ctx := context.Background()
	keys := make([]string, 8)
	items := make([]core.PlaceItem, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("tcp-k%d", i)
		items[i] = core.PlaceItem{Key: keys[i], Entries: entry.Synthetic(20)}
	}
	for i, err := range svc.PlaceBatch(ctx, items) {
		if err != nil {
			t.Fatalf("PlaceBatch[%s] over TCP: %v", keys[i], err)
		}
	}
	adds := make([]core.AddItem, len(keys))
	for i, k := range keys {
		adds[i] = core.AddItem{Key: k, Entry: core.Entry(fmt.Sprintf("extra-%d", i))}
	}
	for i, err := range svc.AddBatch(ctx, adds) {
		if err != nil {
			t.Fatalf("AddBatch[%s] over TCP: %v", keys[i], err)
		}
	}
	for i, o := range svc.PartialLookupBatch(ctx, keys, 6) {
		if o.Err != nil {
			t.Fatalf("PartialLookupBatch[%s] over TCP: %v", keys[i], o.Err)
		}
		if !o.Result.Satisfied(6) {
			t.Fatalf("lookup %s got %d entries, want >= 6", keys[i], len(o.Result.Entries))
		}
	}
}

// TestPartitionBatchRouting checks the KeyPartition fan-out: a batch
// splits into one envelope per home server, and a down home fails only
// its own keys.
func TestPartitionBatchRouting(t *testing.T) {
	svc, cl := newService(t, 5, core.WithDefaultConfig(core.Config{Scheme: core.KeyPartition}))
	ctx := context.Background()
	keys := make([]string, 10)
	items := make([]core.PlaceItem, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("pk%d", i)
		items[i] = core.PlaceItem{Key: keys[i], Entries: entry.Synthetic(6)}
	}
	for i, err := range svc.PlaceBatch(ctx, items) {
		if err != nil {
			t.Fatalf("place %s: %v", keys[i], err)
		}
	}
	// Kill one home server: exactly the keys living there must fail.
	victim := 2
	cl.Fail(victim)
	outcomes := svc.PartialLookupBatch(ctx, keys, 3)
	for i, o := range outcomes {
		home := node.PartitionServer(keys[i], 5)
		if home == victim {
			if !errors.Is(o.Err, strategy.ErrNoLiveServers) {
				t.Fatalf("key %s on failed home %d: err = %v", keys[i], home, o.Err)
			}
			continue
		}
		if o.Err != nil || !o.Result.Satisfied(3) {
			t.Fatalf("key %s on live home %d: err=%v entries=%d", keys[i], home, o.Err, len(o.Result.Entries))
		}
	}
}
