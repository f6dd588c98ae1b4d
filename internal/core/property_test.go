package core_test

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// TestPropertyPlacementInvariants drives random valid configurations
// through place and checks the paper's structural guarantees:
//
//   - measured storage is within tolerance of the Table 1 formula;
//   - Round-y and Hash-y have complete coverage (Sec. 4.3);
//   - a partial lookup for any t up to the scheme's per-server
//     guarantee is satisfied with all servers up.
func TestPropertyPlacementInvariants(t *testing.T) {
	seedRNG := stats.NewRNG(2718)
	check := func(schemeRaw, nRaw, hRaw, paramRaw uint8) bool {
		n := 2 + int(nRaw%9)   // 2..10 servers
		h := 10 + int(hRaw%90) // 10..99 entries
		var cfg core.Config
		switch schemeRaw % 5 {
		case 0:
			cfg = core.Config{Scheme: core.FullReplication}
		case 1:
			cfg = core.Config{Scheme: core.Fixed, X: 1 + int(paramRaw)%h}
		case 2:
			cfg = core.Config{Scheme: core.RandomServer, X: 1 + int(paramRaw)%h}
		case 3:
			cfg = core.Config{Scheme: core.RoundRobin, Y: 1 + int(paramRaw)%n}
		default:
			cfg = core.Config{Scheme: core.Hash, Y: 1 + int(paramRaw)%8, Seed: uint64(paramRaw) * 977}
		}

		ctx := context.Background()
		cl := cluster.New(n, seedRNG.Split())
		svc, err := core.NewService(cl.Caller(), core.WithSeed(seedRNG.Uint64()),
			core.WithDefaultConfig(cfg))
		if err != nil {
			t.Logf("NewService(%v, n=%d): %v", cfg, n, err)
			return false
		}
		if err := svc.Place(ctx, "k", entry.Synthetic(h)); err != nil {
			t.Logf("Place(%v, h=%d, n=%d): %v", cfg, h, n, err)
			return false
		}

		// Storage within 15% of the analytic expectation (Hash-y is
		// stochastic; the rest are exact).
		analytic := strategy.ExpectedStorage(cfg, h, n)
		got := float64(cl.TotalStorage("k"))
		if cfg.Scheme == core.Hash {
			if got < analytic*0.7 || got > analytic*1.3 {
				t.Logf("storage %v vs analytic %v (%v h=%d n=%d)", got, analytic, cfg, h, n)
				return false
			}
		} else if got != analytic {
			t.Logf("storage %v != analytic %v (%v h=%d n=%d)", got, analytic, cfg, h, n)
			return false
		}

		// Coverage guarantees.
		cov := entry.Union(cl.Snapshot("k")...)
		switch cfg.Scheme {
		case core.RoundRobin, core.Hash, core.FullReplication:
			if cov != h {
				t.Logf("coverage %d != %d (%v)", cov, h, cfg)
				return false
			}
		case core.Fixed:
			want := cfg.X
			if want > h {
				want = h
			}
			if cov != want {
				t.Logf("Fixed coverage %d != %d", cov, want)
				return false
			}
		}

		// A lookup up to the guaranteed floor always succeeds.
		guarantee := 0
		switch cfg.Scheme {
		case core.FullReplication:
			guarantee = h
		case core.Fixed, core.RandomServer:
			guarantee = cfg.X
			if guarantee > h {
				guarantee = h
			}
		case core.RoundRobin, core.Hash:
			guarantee = h // complete coverage; client may visit all servers
		}
		if guarantee > 0 {
			res, err := svc.PartialLookup(ctx, "k", guarantee)
			if err != nil {
				t.Logf("lookup(%d) error: %v (%v)", guarantee, err, cfg)
				return false
			}
			if !res.Satisfied(guarantee) {
				t.Logf("lookup(%d) got %d (%v, h=%d, n=%d)", guarantee, len(res.Entries), cfg, h, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}
