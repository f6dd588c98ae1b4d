package experiments

import (
	"fmt"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// churnGap is Sec. 6.1's mean time between adds.
const churnGap = 10.0

// dynamicRun is an instance that replays a generated update stream
// through its driver. live holds the entries the stream has left alive
// so far: the universe an unfairness measurement is taken over.
type dynamicRun struct {
	*instance
	stream Stream
	live   *entry.Set
}

// newChurnRun sets up the Sec. 6.1 run the dynamic experiments share:
// adds arrive as a Poisson process with mean gap churnGap, and entry
// lifetimes of the given kind ("exp" or "zipf", DefaultLifetime)
// hold the population near steady entries over updates events.
func newChurnRun(rng *stats.RNG, cfg wire.Config, lifetime string, steady, updates int) (*dynamicRun, error) {
	lt, err := DefaultLifetime(lifetime, churnGap, steady)
	if err != nil {
		return nil, err
	}
	return newDynamicRun(rng, cfg, StreamConfig{
		MeanArrivalGap: churnGap,
		SteadyState:    steady,
		Lifetime:       lt,
		Updates:        updates,
	})
}

// newDynamicRun generates a stream from sc and places its initial
// population under cfg on canonicalN servers. Like newInstance, a
// Hash-y run draws a fresh hash family first.
func newDynamicRun(rng *stats.RNG, cfg wire.Config, sc StreamConfig) (*dynamicRun, error) {
	if cfg.Scheme == wire.Hash && cfg.Seed == 0 {
		cfg.Seed = rng.Uint64()
	}
	stream, err := Generate(rng.Split(), sc)
	if err != nil {
		return nil, err
	}
	return startDynamicRun(rng, cfg, stream)
}

// startDynamicRun places stream's initial population under cfg on a
// fresh cluster of canonicalN servers.
func startDynamicRun(rng *stats.RNG, cfg wire.Config, stream Stream) (*dynamicRun, error) {
	inst, err := place(rng, cfg, canonicalN, stream.Initial)
	if err != nil {
		return nil, err
	}
	live := entry.NewSet(len(stream.Initial))
	for _, v := range stream.Initial {
		live.Add(v)
	}
	return &dynamicRun{instance: inst, stream: stream, live: live}, nil
}

// apply consumes one update event through the client driver.
func (r *dynamicRun) apply(ev Event) error {
	switch ev.Kind {
	case OpAdd:
		r.live.Add(ev.Entry)
		return r.driver.Add(ctxB(), r.cluster.Caller(), r.key, ev.Entry)
	case OpDelete:
		r.live.Remove(ev.Entry)
		return r.driver.Delete(ctxB(), r.cluster.Caller(), r.key, ev.Entry)
	default:
		return fmt.Errorf("experiments: unknown event kind %v", ev.Kind)
	}
}

// replay applies the whole stream and returns the messages the servers
// processed doing it (placement traffic excluded).
func (r *dynamicRun) replay() (int64, error) {
	r.cluster.ResetMessages()
	if err := ReplayTimed(r.stream.Events, r.apply, nil); err != nil {
		return 0, err
	}
	return r.cluster.Messages(), nil
}

// replayThin applies the whole stream and records in frac the
// percentage of simulated time during which server 0 held fewer than t
// entries. Every Fixed-x server holds the identical set, so for Fixed-x
// that is exactly the time a lookup for t fails (Sec. 6.2).
func (r *dynamicRun) replayThin(t int, frac *stats.Summary) error {
	node0 := r.cluster.Node(0)
	thin, total := 0.0, 0.0
	err := ReplayTimed(r.stream.Events, r.apply, func(from, to float64) error {
		d := to - from
		total += d
		if node0.LocalLen(r.key) < t {
			thin += d
		}
		return nil
	})
	if err == nil && total > 0 {
		frac.Observe(100 * thin / total)
	}
	return err
}

// Fig12Cushion reproduces Figure 12: the percentage of execution time
// during which a Fixed-x client fails to retrieve t=15 of the ~100
// entries in the system, versus the cushion size b (x = t+b), for both
// exponential and Zipf-like entry lifetimes.
//
// Because every Fixed-x server holds the identical set, a lookup fails
// exactly while the local set has fewer than t entries; the failure
// fraction is measured time-weighted over the replay (Sec. 6.2).
func Fig12Cushion(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	const (
		target = 15
		steady = 100
	)
	t := &Table{
		ID:      "fig12",
		Title:   fmt.Sprintf("Fixed-x lookup failure rate vs. cushion (t=%d, steady state %d entries)", target, steady),
		XLabel:  "Cushion",
		Columns: []string{"exp %", "zipf %"},
		Notes: []string{
			"paper shape: failure time drops roughly exponentially with cushion; the heavy-tail zipf curve tapers off",
		},
	}
	for b := 0; b <= 7; b++ {
		cfg := wire.Config{Scheme: wire.Fixed, X: strategy.CushionedFixedX(target, b)}
		summaries := make([]*stats.Summary, 0, 2)
		for _, lifetime := range []string{"exp", "zipf"} {
			frac := &stats.Summary{}
			for run := 0; run < fid.Runs; run++ {
				dr, err := newChurnRun(rng, cfg, lifetime, steady, fid.Updates)
				if err != nil {
					return nil, err
				}
				if err := dr.replayThin(target, frac); err != nil {
					return nil, err
				}
			}
			summaries = append(summaries, frac)
		}
		t.AddRowCI(fmt.Sprintf("%d", b), summaries...)
	}
	return t, nil
}

// Fig13Deterioration reproduces Figure 13: the unfairness of
// RandomServer-20 (10 servers, steady state 100 entries) as updates
// accumulate, measured at checkpoints every 250 updates up to 4000.
//
// Unfairness is measured with target answer size 1, which matches the
// paper's reported levels: the text states Fixed-x scores exactly 2 on
// this experiment, which Eq. 1 yields only at t=1 (p_j = 1/x for x of
// h entries gives U = (h/t)·sqrt((x(t/x - t/h)² + (h-x)(t/h)²)/h) = 2
// at x=20, h=100, t=1), and the t=1 static RandomServer level ≈ 0.6
// matches the figure's starting point.
func Fig13Deterioration(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	const (
		target     = 1
		steady     = 100
		maxUpdates = 4000
		step       = 250
	)
	cfg := wire.Config{Scheme: wire.RandomServer, X: 20}
	t := &Table{
		ID:      "fig13",
		Title:   "RandomServer-20 unfairness vs. number of updates (10 servers, steady state 100)",
		XLabel:  "Updates",
		Columns: []string{"randomServer-x", "fixed-x reference"},
		Notes: []string{
			"paper shape: rises quickly from ~0.55-0.65 and stabilizes ~0.85; Fixed-x sits at 2 throughout (t=1)",
		},
	}
	numCheckpoints := maxUpdates/step + 1
	// at[0] is RandomServer-20's series, at[1] the Fixed-20 reference's.
	at := [2][]stats.Summary{make([]stats.Summary, numCheckpoints), make([]stats.Summary, numCheckpoints)}
	for run := 0; run < fid.Runs; run++ {
		// Both runs replay the one stream.
		rs, err := newChurnRun(rng, cfg, "exp", steady, maxUpdates)
		if err != nil {
			return nil, err
		}
		fixed, err := startDynamicRun(rng, wire.Config{Scheme: wire.Fixed, X: 20}, rs.stream)
		if err != nil {
			return nil, err
		}
		runs := []*dynamicRun{rs, fixed}
		measure := func(checkpoint int) error {
			for i, dr := range runs {
				u, err := dr.unfairness(dr.live.Members(), target, fid.Lookups)
				if err != nil {
					return err
				}
				at[i][checkpoint].Observe(u)
			}
			return nil
		}
		if err := measure(0); err != nil {
			return nil, err
		}
		for i, ev := range rs.stream.Events {
			for _, dr := range runs {
				if err := dr.apply(ev); err != nil {
					return nil, err
				}
			}
			if (i+1)%step == 0 {
				if err := measure((i + 1) / step); err != nil {
					return nil, err
				}
			}
		}
	}
	for i := 0; i < numCheckpoints; i++ {
		t.AddRow(fmt.Sprintf("%d", i*step), at[0][i].Mean(), at[1][i].Mean())
	}
	return t, nil
}

// Fig14UpdateOverhead reproduces Figure 14: the total number of
// messages processed by the servers while replaying an update stream,
// for Fixed-50 versus Hash-y with the optimal y = ceil(t·n/h), as the
// steady-state number of entries h sweeps 100..400 (t=40, n=10).
// Placement traffic is excluded (counters reset after place), matching
// the paper's focus on update overhead.
func Fig14UpdateOverhead(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	const target = 40
	t := &Table{
		ID:      "fig14",
		Title:   fmt.Sprintf("Update overhead vs. steady-state entries (t=%d, %d servers, %d updates)", target, canonicalN, fid.Updates),
		XLabel:  "h",
		Columns: []string{"fixed-50", "hash-y", "y"},
		Notes: []string{
			"paper shape: Fixed falls ~1/h; Hash steps down as the optimal y drops at h=134, 200, 400; curves cross near x·n/h = y",
		},
	}
	hs := []int{100, 115, 125, 135, 150, 175, 200, 225, 250, 275, 300, 325, 350, 375, 400}
	fixedCfg := wire.Config{Scheme: wire.Fixed, X: 50}
	for _, h := range hs {
		y := strategy.OptimalHashY(target, h, canonicalN)
		hashCfg := wire.Config{Scheme: wire.Hash, Y: y}
		summaries := make([]*stats.Summary, 0, 3)
		for _, cfg := range []wire.Config{fixedCfg, hashCfg} {
			msgs := &stats.Summary{}
			for run := 0; run < fid.Runs; run++ {
				dr, err := newChurnRun(rng, cfg, "exp", h, fid.Updates)
				if err != nil {
					return nil, err
				}
				m, err := dr.replay()
				if err != nil {
					return nil, err
				}
				msgs.Observe(float64(m))
			}
			summaries = append(summaries, msgs)
		}
		ySummary := &stats.Summary{}
		ySummary.Observe(float64(y))
		summaries = append(summaries, ySummary)
		t.AddRowCI(fmt.Sprintf("%d", h), summaries...)
	}
	t.Notes = append(t.Notes, fmt.Sprintf("max 95%% CI half-width: %.2f%% of mean", 100*t.MaxRelativeCI()))
	return t, nil
}
