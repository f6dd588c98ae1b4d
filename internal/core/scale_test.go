package core_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// TestScaleLargeCluster pushes each strategy well beyond the paper's
// 10-server canon: 50 servers, 1000 entries, heavy churn, then checks
// the global invariants (storage accounting, coverage, satisfiability,
// no resurrection of deleted entries).
func TestScaleLargeCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("large-cluster stress test")
	}
	const (
		n = 50
		h = 1000
	)
	configs := []core.Config{
		{Scheme: core.Fixed, X: 100},
		{Scheme: core.RandomServer, X: 100},
		{Scheme: core.RoundRobin, Y: 3},
		{Scheme: core.Hash, Y: 3, Seed: 7},
	}
	for _, cfg := range configs {
		t.Run(cfg.String(), func(t *testing.T) {
			ctx := context.Background()
			rng := stats.NewRNG(404)
			cl := cluster.New(n, rng.Split())
			svc, err := core.NewService(cl.Caller(), core.WithSeed(5), core.WithDefaultConfig(cfg))
			if err != nil {
				t.Fatal(err)
			}
			entries := entry.Synthetic(h)
			if err := svc.Place(ctx, "big", entries); err != nil {
				t.Fatal(err)
			}

			// Expected storage per Table 1 (within noise for Hash).
			analytic := strategy.ExpectedStorage(cfg, h, n)
			got := float64(cl.TotalStorage("big"))
			if got < analytic*0.93 || got > analytic*1.07 {
				t.Fatalf("storage %v, analytic %v", got, analytic)
			}

			// Churn: 500 deletes, 500 adds, interleaved.
			for i := 0; i < 500; i++ {
				if err := svc.Delete(ctx, "big", entries[i*2]); err != nil {
					t.Fatalf("delete %d: %v", i, err)
				}
				if err := svc.Add(ctx, "big", core.Entry(fmt.Sprintf("new-%d", i))); err != nil {
					t.Fatalf("add %d: %v", i, err)
				}
			}

			// No deleted entry survives anywhere.
			snap := cl.Snapshot("big")
			for i := 0; i < 500; i++ {
				for s, set := range snap {
					if set.Contains(entries[i*2]) {
						t.Fatalf("server %d resurrected %s", s, entries[i*2])
					}
				}
			}

			// Lookups stay satisfiable at a healthy t.
			res, err := svc.PartialLookup(ctx, "big", 50)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Satisfied(50) {
				t.Fatalf("t=50 lookup returned %d entries", len(res.Entries))
			}

			// Coverage stays near complete for the covering schemes.
			if cfg.Scheme == core.RoundRobin || cfg.Scheme == core.Hash {
				if cov := entry.Union(snap...); cov != 1000 {
					t.Fatalf("coverage = %d, want 1000 (500 old + 500 new)", cov)
				}
			}

			// And it still works with a third of the cluster down.
			for i := 0; i < n; i += 3 {
				cl.Fail(i)
			}
			res, err = svc.PartialLookup(ctx, "big", 50)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Satisfied(50) {
				t.Fatalf("t=50 lookup under failures returned %d entries", len(res.Entries))
			}
		})
	}
}
