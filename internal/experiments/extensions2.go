package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// ExtRandomFailures complements the paper's adversarial fault-tolerance
// metric (Fig. 7) with random-failure behavior: for each strategy at
// the canonical budget, it reports the fraction of satisfied lookups
// and the mean lookup cost as k uniformly random servers fail
// (t=35, 100 entries, 10 servers, storage 200).
func ExtRandomFailures(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	// t=35 exceeds one server's subset under every budget-200 scheme,
	// so shrinking the live set genuinely erodes satisfiability
	// (Fixed-20 is excluded: it can never satisfy t=35, as in Fig. 4).
	const target = 35
	configs := []wire.Config{
		{Scheme: wire.RandomServer, X: 20},
		{Scheme: wire.RoundRobin, Y: 2},
		{Scheme: wire.Hash, Y: 2},
	}
	t := &Table{
		ID:     "ext-failures",
		Title:  fmt.Sprintf("Random failures: satisfied%% (and lookup cost) vs. failed servers (t=%d, storage %d)", target, canonicalBudget),
		XLabel: "Failed",
		Columns: []string{
			"RandomServer sat%", "Round sat%", "Hash sat%",
			"RandomServer cost", "Round cost", "Hash cost",
		},
		Notes: []string{
			"complements Fig. 7's worst-case metric: failures here are uniformly random, not adversarial",
		},
	}
	for failed := 0; failed <= 8; failed += 2 {
		sat := make([]float64, len(configs))
		cost := make([]float64, len(configs))
		for ci, cfg := range configs {
			var satS, costS stats.Summary
			for run := 0; run < fid.Runs; run++ {
				inst, err := newInstance(rng, cfg, canonicalH, canonicalN)
				if err != nil {
					return nil, err
				}
				for _, s := range rng.SampleInts(canonicalN, failed) {
					inst.cluster.Fail(s)
				}
				lc, err := inst.lookupCost(target, max(1, fid.Lookups/5))
				if err = inst.close(err); err != nil {
					return nil, err
				}
				satS.Observe(lc.SatisfiedFraction * 100)
				costS.Observe(lc.MeanContacted)
			}
			sat[ci] = satS.Mean()
			cost[ci] = costS.Mean()
		}
		t.AddRow(fmt.Sprintf("%d", failed), append(sat, cost...)...)
	}
	return t, nil
}

// ExtOptimalYPolicy ablates the Fig. 14 y-selection policy: Hash-y with
// the adaptive y = ceil(t·n/h) versus pinned y=2 and y=4, reporting
// update overhead and lookup cost across the h sweep. The adaptive
// policy should track the cheaper pinned curve on each side of the
// break points.
func ExtOptimalYPolicy(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	const target = 40
	t := &Table{
		ID:     "ext-optimaly",
		Title:  fmt.Sprintf("Hash-y policy ablation: adaptive y vs. pinned y (t=%d, %d updates)", target, fid.Updates),
		XLabel: "h",
		Columns: []string{
			"adaptive msgs", "y=2 msgs", "y=4 msgs",
			"adaptive cost", "y=2 cost", "y=4 cost",
		},
		Notes: []string{
			"adaptive y = ceil(t·n/h) (Sec. 6.4); pinned y wastes messages (large y) or lookups (small y) away from its sweet spot",
		},
	}
	for _, h := range []int{100, 150, 200, 300, 400} {
		policies := []wire.Config{
			{Scheme: wire.Hash, Y: strategy.OptimalHashY(target, h, canonicalN)},
			{Scheme: wire.Hash, Y: 2},
			{Scheme: wire.Hash, Y: 4},
		}
		msgs := make([]float64, len(policies))
		costs := make([]float64, len(policies))
		for pi, cfg := range policies {
			var msgsS, costS stats.Summary
			for run := 0; run < max(1, fid.Runs/4); run++ {
				dr, err := newChurnRun(rng, cfg, "exp", h, fid.Updates)
				if err != nil {
					return nil, err
				}
				m, err := dr.replay()
				if err != nil {
					return nil, dr.close(err)
				}
				msgsS.Observe(float64(m) / float64(fid.Updates))
				lc, err := dr.lookupCost(target, max(1, fid.Lookups/5))
				if err = dr.close(err); err != nil {
					return nil, err
				}
				costS.Observe(lc.MeanContacted)
			}
			msgs[pi] = msgsS.Mean()
			costs[pi] = costS.Mean()
		}
		t.AddRow(fmt.Sprintf("%d", h), append(msgs, costs...)...)
	}
	return t, nil
}
