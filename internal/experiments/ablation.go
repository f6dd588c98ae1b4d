package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// GreedyExactGap summarizes how the Appendix A greedy fault-tolerance
// heuristic compares to the exact (exponential) minimum on small
// random placements — the validation ablation in EXPERIMENTS.md,
// "Ablations".
type GreedyExactGap struct {
	// MeanGap is the average (greedy - exact) tolerance; greedy can
	// only overestimate the adversary's difficulty, so the gap is
	// nonnegative.
	MeanGap float64
	// MaxGap is the worst observed overestimate.
	MaxGap float64
	// ExactFraction is the fraction of placements where greedy found
	// the exact tolerance.
	ExactFraction float64
}

// AblationGreedyVsExact measures the greedy heuristic's accuracy on
// small instances of the canonical strategies (6 servers so the exact
// brute force stays cheap).
func AblationGreedyVsExact(fid Fidelity, seed uint64) (GreedyExactGap, error) {
	rng := stats.NewRNG(seed)
	const (
		h = 30
		n = 6
	)
	configs := []wire.Config{
		{Scheme: wire.RandomServer, X: 10},
		{Scheme: wire.Hash, Y: 2},
		{Scheme: wire.RoundRobin, Y: 2},
	}
	var gap GreedyExactGap
	total, exactMatches := 0, 0
	sum := 0.0
	for _, cfg := range configs {
		for run := 0; run < fid.Runs; run++ {
			inst, err := newInstance(rng, cfg, h, n)
			if err != nil {
				return gap, err
			}
			snap := inst.cluster.Snapshot(inst.key)
			for _, target := range []int{5, 10, 15} {
				greedy := faultToleranceGreedy(snap, target)
				exact := faultToleranceExact(snap, target)
				if greedy < exact {
					return gap, fmt.Errorf("experiments: greedy %d below exact %d (%v, t=%d)", greedy, exact, cfg, target)
				}
				d := float64(greedy - exact)
				sum += d
				if d > gap.MaxGap {
					gap.MaxGap = d
				}
				if greedy == exact {
					exactMatches++
				}
				total++
			}
		}
	}
	if total > 0 {
		gap.MeanGap = sum / float64(total)
		gap.ExactFraction = float64(exactMatches) / float64(total)
	}
	return gap, nil
}

// AblationCushionLifetime measures the Fixed-x failure rate at
// cushions 2 and 4 for mean entry lifetimes 1000 and 2000 (Sec. 6.2's
// claim: doubling the lifetime roughly halves the needed cushion).
// The returned map is lifetime -> [fail% at b=2, fail% at b=4].
func AblationCushionLifetime(fid Fidelity, seed uint64) (map[int][2]float64, error) {
	rng := stats.NewRNG(seed)
	const (
		target = 15
		steady = 100
	)
	out := make(map[int][2]float64, 2)
	for _, life := range []int{1000, 2000} {
		// Mean lifetime = gap · steady, so lifetime 2000 corresponds
		// to a slower arrival process with gap 20.
		gapT := float64(life) / float64(steady)
		var vals [2]float64
		for bi, b := range []int{2, 4} {
			cfg := wire.Config{Scheme: wire.Fixed, X: strategy.CushionedFixedX(target, b)}
			var frac stats.Summary
			for run := 0; run < fid.Runs; run++ {
				dr, err := newDynamicRun(rng, cfg, StreamConfig{
					MeanArrivalGap: gapT,
					SteadyState:    steady,
					Lifetime:       stats.NewExponential(float64(life)),
					Updates:        fid.Updates,
				})
				if err != nil {
					return nil, err
				}
				if err := dr.replayThin(target, &frac); err != nil {
					return nil, err
				}
			}
			vals[bi] = frac.Mean()
		}
		out[life] = vals
	}
	return out, nil
}

// NewLookupLoop builds a placed instance for scheme and returns a
// closure performing one partial lookup per call, for raw throughput
// benchmarks. The budget derives x/y as in the paper.
func NewLookupLoop(scheme wire.Scheme, h, n, budget int) (func(t int) error, error) {
	inst, err := loopInstance(scheme, h, n, budget)
	if err != nil {
		return nil, err
	}
	return func(t int) error {
		_, err := inst.lookup(t)
		return err
	}, nil
}

// NewUpdateLoop builds a placed instance and returns a closure that
// adds a fresh entry and deletes an old one per call.
func NewUpdateLoop(scheme wire.Scheme, h, n, budget int) (func(entry string) error, error) {
	inst, err := loopInstance(scheme, h, n, budget)
	if err != nil {
		return nil, err
	}
	last := ""
	return func(name string) error {
		if err := inst.driver.Add(ctxB(), inst.cluster.Caller(), inst.key, name); err != nil {
			return err
		}
		if last != "" {
			if err := inst.driver.Delete(ctxB(), inst.cluster.Caller(), inst.key, last); err != nil {
				return err
			}
		}
		last = name
		return nil
	}, nil
}

func loopInstance(scheme wire.Scheme, h, n, budget int) (*instance, error) {
	cfg, err := strategy.ConfigForBudget(scheme, budget, h, n)
	if err != nil {
		return nil, err
	}
	return newInstance(stats.NewRNG(1), cfg, h, n)
}
