package experiments

import (
	"fmt"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// The canonical setup of the paper's static experiments: 100 entries on
// 10 servers with a total storage budget of 200 entries, which derives
// Fixed-20, RandomServer-20, Round-2, and Hash-2 (Sec. 4.2).
const (
	canonicalH      = 100
	canonicalN      = 10
	canonicalBudget = 200
)

// Table1Storage reproduces Table 1: the storage cost of managing h=100
// entries on n=10 servers, measured from real placements against the
// paper's analytic formulas.
func Table1Storage(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	t := &Table{
		ID:      "table1",
		Title:   fmt.Sprintf("Storage cost for managing %d entries on %d servers", canonicalH, canonicalN),
		XLabel:  "Strategy",
		Columns: []string{"Analytic", "Measured"},
		Notes: []string{
			"analytic formulas: h·n, x·n, x·n, h·y, h·n·(1-(1-1/n)^y) (Table 1)",
		},
	}
	configs := []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 20},
		{Scheme: wire.RandomServer, X: 20},
		{Scheme: wire.RoundRobin, Y: 2},
		{Scheme: wire.Hash, Y: 2},
	}
	for _, cfg := range configs {
		var measured stats.Summary
		for run := 0; run < fid.Runs; run++ {
			inst, err := newInstance(rng, cfg, canonicalH, canonicalN)
			if err != nil {
				return nil, err
			}
			measured.Observe(float64(inst.cluster.TotalStorage(inst.key)))
			if err := inst.close(nil); err != nil {
				return nil, err
			}
		}
		analytic := strategy.ExpectedStorage(cfg, canonicalH, canonicalN)
		t.AddRow(cfg.String(), analytic, measured.Mean())
	}
	return t, nil
}

// Fig4LookupCost reproduces Figure 4: expected number of servers
// contacted per lookup versus target answer size, for the three
// budget-200 strategies the paper plots (Fixed-20 is excluded, as in
// the paper, because it cannot answer t > 20).
func Fig4LookupCost(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	t := &Table{
		ID:     "fig4",
		Title:  "Lookup cost vs. target answer size (100 entries, 10 servers, storage 200)",
		XLabel: "t",
		Columns: []string{
			"Round-2", "RandomServer-20", "Hash-2",
		},
		Notes: []string{
			"paper shape: Round-2 steps +1 per 20 entries of t; RandomServer-20 above Round-2; Hash-2 > 1 even at small t",
		},
	}
	configs := []wire.Config{
		{Scheme: wire.RoundRobin, Y: 2},
		{Scheme: wire.RandomServer, X: 20},
		{Scheme: wire.Hash, Y: 2},
	}
	for target := 10; target <= 50; target += 5 {
		summaries := make([]*stats.Summary, 0, len(configs))
		for _, cfg := range configs {
			cost := &stats.Summary{}
			for run := 0; run < fid.Runs; run++ {
				inst, err := newInstance(rng, cfg, canonicalH, canonicalN)
				if err != nil {
					return nil, err
				}
				res, err := inst.lookupCost(target, fid.Lookups)
				if err = inst.close(err); err != nil {
					return nil, err
				}
				cost.Observe(res.MeanContacted)
			}
			summaries = append(summaries, cost)
		}
		t.AddRowCI(fmt.Sprintf("%d", target), summaries...)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("max 95%% CI half-width: %.2f%% of mean", 100*t.MaxRelativeCI()))
	return t, nil
}

// Fig6Coverage reproduces Figure 6: maximum coverage versus total
// storage budget for managing 100 entries on 10 servers. When the
// budget cannot store every entry once, Round-y and Hash-y "keep a
// subset of (v1..vh)" (Sec. 4.3): we place the first `budget` entries
// with y=1, exactly the paper's assumption.
func Fig6Coverage(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	t := &Table{
		ID:      "fig6",
		Title:   "Coverage vs. total storage (100 entries, 10 servers)",
		XLabel:  "Storage",
		Columns: []string{"Round&Hash", "Fixed", "RandomServer", "RandomServer analytic"},
		Notes: []string{
			"RandomServer analytic: h·(1-(1-x/h)^n) with x = budget/n (Sec. 4.3)",
		},
	}
	for budget := 10; budget <= 200; budget += 10 {
		x := budget / canonicalN

		// Round-y / Hash-y under a storage limit: coverage equals the
		// number of entries that fit, capped at h.
		roundHash := float64(min(budget, canonicalH))

		// Fixed-x: coverage is exactly x.
		fixed := float64(min(x, canonicalH))

		// RandomServer-x: measured over fid.Runs placements.
		var rs stats.Summary
		cfg := wire.Config{Scheme: wire.RandomServer, X: x}
		for run := 0; run < fid.Runs; run++ {
			inst, err := newInstance(rng, cfg, canonicalH, canonicalN)
			if err != nil {
				return nil, err
			}
			rs.Observe(float64(entry.Union(inst.cluster.Snapshot(inst.key)...)))
			if err := inst.close(nil); err != nil {
				return nil, err
			}
		}
		analytic := strategy.ExpectedCoverage(cfg, canonicalH, canonicalN)
		t.AddRow(fmt.Sprintf("%d", budget), roundHash, fixed, rs.Mean(), analytic)
	}
	return t, nil
}

// Fig7FaultTolerance reproduces Figure 7: the average maximum number of
// tolerable server failures (adversarial, via the Appendix A greedy
// heuristic) versus target answer size, for the three budget-200
// strategies.
func Fig7FaultTolerance(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	t := &Table{
		ID:      "fig7",
		Title:   "Fault tolerance vs. target answer size (100 entries, 10 servers, storage 200)",
		XLabel:  "t",
		Columns: []string{"RandomServer-20", "Hash-2", "Round-2"},
		Notes: []string{
			"paper shape: Round-2 loses 1 per +10 of t; RandomServer-20 above Round-2; Hash-2 S-shaped",
		},
	}
	configs := []wire.Config{
		{Scheme: wire.RandomServer, X: 20},
		{Scheme: wire.Hash, Y: 2},
		{Scheme: wire.RoundRobin, Y: 2},
	}
	for target := 10; target <= 50; target += 5 {
		values := make([]float64, 0, len(configs))
		for _, cfg := range configs {
			var ft stats.Summary
			for run := 0; run < fid.Runs; run++ {
				inst, err := newInstance(rng, cfg, canonicalH, canonicalN)
				if err != nil {
					return nil, err
				}
				ft.Observe(float64(faultToleranceGreedy(inst.cluster.Snapshot(inst.key), target)))
				if err := inst.close(nil); err != nil {
					return nil, err
				}
			}
			values = append(values, ft.Mean())
		}
		t.AddRow(fmt.Sprintf("%d", target), values...)
	}
	return t, nil
}

// Fig9Unfairness reproduces Figure 9: unfairness (coefficient of
// variation of per-entry return probabilities, Eq. 1) versus total
// storage budget, for RandomServer-x and Hash-y with target answer
// size 35 on 100 entries and 10 servers.
func Fig9Unfairness(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	const target = 35
	t := &Table{
		ID:      "fig9",
		Title:   fmt.Sprintf("Unfairness vs. total storage (100 entries, 10 servers, t=%d)", target),
		XLabel:  "Storage",
		Columns: []string{"randomServer", "hash"},
		Notes: []string{
			"paper shape: RandomServer decays in two phases; Hash rises then plateaus near its inherent placement bias",
		},
	}
	for budget := 100; budget <= 1000; budget += 100 {
		rsCfg := wire.Config{Scheme: wire.RandomServer, X: budget / canonicalN}
		hashCfg := wire.Config{Scheme: wire.Hash, Y: budget / canonicalH}
		summaries := make([]*stats.Summary, 0, 2)
		for _, cfg := range []wire.Config{rsCfg, hashCfg} {
			unfair := &stats.Summary{}
			for run := 0; run < fid.Runs; run++ {
				inst, err := newInstance(rng, cfg, canonicalH, canonicalN)
				if err != nil {
					return nil, err
				}
				u, err := inst.unfairness(inst.entries, target, fid.Lookups)
				if err = inst.close(err); err != nil {
					return nil, err
				}
				unfair.Observe(u)
			}
			summaries = append(summaries, unfair)
		}
		t.AddRowCI(fmt.Sprintf("%d", budget), summaries...)
	}
	return t, nil
}
