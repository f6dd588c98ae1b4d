package strategy_test

import (
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/wire"
)

func newPlaced(t *testing.T, cfg wire.Config, h, n int, seed uint64) (*cluster.Cluster, *strategy.Driver) {
	t.Helper()
	rng := stats.NewRNG(seed)
	cl := cluster.New(n, rng.Split())
	drv, err := strategy.New(cfg, rng.Split())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := drv.Place(context.Background(), cl.Caller(), "k", entry.Synthetic(h)); err != nil {
		t.Fatalf("Place: %v", err)
	}
	return cl, drv
}

func TestNewRejectsBadInput(t *testing.T) {
	if _, err := strategy.New(wire.Config{}, stats.NewRNG(1)); err == nil {
		t.Fatal("invalid scheme accepted")
	}
	if _, err := strategy.New(wire.Config{Scheme: wire.Fixed, X: 1}, nil); err == nil {
		t.Fatal("nil RNG accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	strategy.MustNew(wire.Config{}, stats.NewRNG(1))
}

func TestPlaceValidatesAgainstClusterSize(t *testing.T) {
	cl := cluster.New(3, stats.NewRNG(1))
	drv := strategy.MustNew(wire.Config{Scheme: wire.RoundRobin, Y: 5}, stats.NewRNG(2))
	err := drv.Place(context.Background(), cl.Caller(), "k", entry.Synthetic(4))
	if err == nil {
		t.Fatal("y > n place accepted")
	}
}

func TestPartialLookupRejectsNonPositiveT(t *testing.T) {
	cl, drv := newPlaced(t, wire.Config{Scheme: wire.FullReplication}, 10, 3, 1)
	if _, err := drv.PartialLookup(context.Background(), cl.Caller(), "k", 0); err == nil {
		t.Fatal("t=0 accepted")
	}
	if _, err := drv.PartialLookup(context.Background(), cl.Caller(), "k", -1); err == nil {
		t.Fatal("t=-1 accepted")
	}
}

func TestLookupSingleProbeSchemes(t *testing.T) {
	for _, cfg := range []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 25},
	} {
		cl, drv := newPlaced(t, cfg, 100, 5, 7)
		for i := 0; i < 20; i++ {
			res, err := drv.PartialLookup(context.Background(), cl.Caller(), "k", 10)
			if err != nil {
				t.Fatalf("%v lookup: %v", cfg, err)
			}
			if res.Contacted != 1 {
				t.Fatalf("%v contacted %d servers, want 1", cfg, res.Contacted)
			}
			if !res.Satisfied(10) {
				t.Fatalf("%v unsatisfied: %d entries", cfg, len(res.Entries))
			}
		}
	}
}

func TestLookupMergesDistinct(t *testing.T) {
	cl, drv := newPlaced(t, wire.Config{Scheme: wire.RandomServer, X: 10}, 60, 8, 8)
	res, err := drv.PartialLookup(context.Background(), cl.Caller(), "k", 25)
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if !res.Satisfied(25) {
		t.Fatalf("got %d entries, want >= 25", len(res.Entries))
	}
	if res.Contacted < 3 {
		t.Fatalf("contacted %d, want >= 3 (x=10 per server)", res.Contacted)
	}
	seen := make(map[entry.Entry]bool)
	for _, v := range res.Entries {
		if seen[v] {
			t.Fatalf("duplicate %s in merged result", v)
		}
		seen[v] = true
	}
}

func TestRoundRobinLookupStepCost(t *testing.T) {
	// Round-2 on 10 servers, 100 entries: each server holds 20; the
	// deterministic walk contacts exactly ceil(t/20) servers.
	cl, drv := newPlaced(t, wire.Config{Scheme: wire.RoundRobin, Y: 2}, 100, 10, 9)
	tests := []struct {
		t    int
		want int
	}{
		{10, 1}, {20, 1}, {21, 2}, {40, 2}, {41, 3}, {60, 3},
	}
	for _, tc := range tests {
		for i := 0; i < 10; i++ {
			res, err := drv.PartialLookup(context.Background(), cl.Caller(), "k", tc.t)
			if err != nil {
				t.Fatalf("lookup t=%d: %v", tc.t, err)
			}
			if res.Contacted != tc.want {
				t.Fatalf("t=%d contacted %d, want %d", tc.t, res.Contacted, tc.want)
			}
			if !res.Satisfied(tc.t) {
				t.Fatalf("t=%d unsatisfied with %d entries", tc.t, len(res.Entries))
			}
		}
	}
}

func TestLookupFailoverOnFailures(t *testing.T) {
	for _, cfg := range []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 30},
		{Scheme: wire.RandomServer, X: 30},
		{Scheme: wire.RoundRobin, Y: 3},
		{Scheme: wire.Hash, Y: 3},
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			cl, drv := newPlaced(t, cfg, 60, 6, 11)
			// Fail half the cluster; lookups must still succeed for a
			// small t (every scheme keeps >= t entries on the
			// surviving servers at these parameters).
			cl.Fail(0)
			cl.Fail(2)
			cl.Fail(4)
			for i := 0; i < 10; i++ {
				res, err := drv.PartialLookup(context.Background(), cl.Caller(), "k", 5)
				if err != nil {
					t.Fatalf("lookup under failures: %v", err)
				}
				if !res.Satisfied(5) {
					t.Fatalf("unsatisfied under failures: %d entries", len(res.Entries))
				}
			}
		})
	}
}

func TestLookupAllServersDown(t *testing.T) {
	cl, drv := newPlaced(t, wire.Config{Scheme: wire.FullReplication}, 10, 3, 12)
	for i := 0; i < 3; i++ {
		cl.Fail(i)
	}
	_, err := drv.PartialLookup(context.Background(), cl.Caller(), "k", 2)
	if !errors.Is(err, strategy.ErrNoLiveServers) {
		t.Fatalf("all-down lookup = %v, want ErrNoLiveServers", err)
	}
	// Updates fail the same way.
	if err := drv.Add(context.Background(), cl.Caller(), "k", "x"); !errors.Is(err, strategy.ErrNoLiveServers) {
		t.Fatalf("all-down add = %v, want ErrNoLiveServers", err)
	}
}

func TestRoundRobinUpdateRequiresCoordinator(t *testing.T) {
	cl, drv := newPlaced(t, wire.Config{Scheme: wire.RoundRobin, Y: 2}, 10, 4, 13)
	cl.Fail(0) // coordinator down
	err := drv.Add(context.Background(), cl.Caller(), "k", "x")
	if !errors.Is(err, strategy.ErrNoLiveServers) {
		t.Fatalf("add with coordinator down = %v, want ErrNoLiveServers", err)
	}
}

func TestUnsatisfiableLookupIsNotError(t *testing.T) {
	// Fixed-5 cannot answer t=10; the driver returns what it got.
	cl, drv := newPlaced(t, wire.Config{Scheme: wire.Fixed, X: 5}, 50, 4, 14)
	res, err := drv.PartialLookup(context.Background(), cl.Caller(), "k", 10)
	if err != nil {
		t.Fatalf("thin lookup errored: %v", err)
	}
	if res.Satisfied(10) {
		t.Fatal("impossible satisfaction")
	}
	if len(res.Entries) != 5 {
		t.Fatalf("got %d entries, want the 5 stored", len(res.Entries))
	}
}

func TestLookupUnknownKey(t *testing.T) {
	cl, drv := newPlaced(t, wire.Config{Scheme: wire.Hash, Y: 2}, 10, 4, 15)
	res, err := drv.PartialLookup(context.Background(), cl.Caller(), "missing", 3)
	if err != nil {
		t.Fatalf("unknown-key lookup: %v", err)
	}
	if len(res.Entries) != 0 {
		t.Fatalf("unknown key returned %d entries", len(res.Entries))
	}
	// Every server is probed before giving up.
	if res.Contacted != 4 {
		t.Fatalf("contacted %d, want 4", res.Contacted)
	}
}

// Place hands the caller's entry list to the wire as it is, and the
// in-process transport hands the message to the nodes un-encoded: no
// server may write to that list, or keep it in place of its own copy.
func TestPlaceNeitherWritesNorKeepsTheCallersSlice(t *testing.T) {
	for _, cfg := range []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 12},
		{Scheme: wire.RandomServer, X: 12},
		{Scheme: wire.RoundRobin, Y: 2},
		{Scheme: wire.Hash, Y: 2, Seed: 42},
		{Scheme: wire.MultiProbe, Y: 2, Seed: 42},
		{Scheme: wire.KeyPartition},
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			rng := stats.NewRNG(23)
			cl := cluster.New(5, rng.Split())
			drv := strategy.MustNew(cfg, rng.Split())
			entries := entry.Synthetic(20)
			placed := slices.Clone(entries)
			if err := drv.Place(context.Background(), cl.Caller(), "k", entries); err != nil {
				t.Fatalf("Place: %v", err)
			}
			if !slices.Equal(entries, placed) {
				t.Fatalf("Place left the caller's list as %v, was %v", entries, placed)
			}
			if cl.TotalStorage("k") == 0 {
				t.Fatal("nothing stored")
			}
			before := make([][]entry.Entry, cl.N())
			for i, set := range cl.Snapshot("k") {
				before[i] = set.Members()
			}
			for i := range entries {
				entries[i] = "overwritten"
			}
			for i, set := range cl.Snapshot("k") {
				if got := set.Members(); !slices.Equal(got, before[i]) {
					t.Fatalf("server %d holds %v after the caller overwrote its list, held %v", i, got, before[i])
				}
			}
		})
	}
}

func TestAddDeleteThroughDriver(t *testing.T) {
	for _, cfg := range []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 30},
		{Scheme: wire.RandomServer, X: 30},
		{Scheme: wire.RoundRobin, Y: 2},
		{Scheme: wire.Hash, Y: 2},
	} {
		t.Run(cfg.String(), func(t *testing.T) {
			cl, drv := newPlaced(t, cfg, 20, 5, 16)
			ctx := context.Background()
			if err := drv.Add(ctx, cl.Caller(), "k", "added"); err != nil {
				t.Fatalf("Add: %v", err)
			}
			if err := drv.Delete(ctx, cl.Caller(), "k", "v5"); err != nil {
				t.Fatalf("Delete: %v", err)
			}
			found := false
			for _, s := range cl.Snapshot("k") {
				if s.Contains("v5") {
					t.Fatal("v5 survived delete")
				}
				if s.Contains("added") {
					found = true
				}
			}
			if !found {
				t.Fatal("added entry not stored anywhere")
			}
		})
	}
}
