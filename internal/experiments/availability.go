package experiments

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ExtAvailability is the availability-under-churn benchmark: for each
// strategy at the canonical storage budget it reports the achieved-t
// rate — the fraction of partial lookups that retrieve at least t
// entries — as the cluster churns (a rotating set of failed servers)
// and the chaos transport additionally drops a fraction of calls.
// Lookups run through core.Service under a resilient LookupPolicy
// (deadline, retries with backoff, failover), so the numbers measure
// the whole client path the service ships with, not just placement
// coverage. Every failure, drop, and probe order is seeded, so a run
// is reproducible from its seed.
func ExtAvailability(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	const (
		// t=35 exceeds any single server's subset at budget 200, so the
		// achieved-t rate measures how well each scheme's coverage and
		// the client's failover ride out shrinking live sets (Fixed-20
		// is capped at 20 distinct entries and can never meet it — the
		// availability ceiling it trades for cheap updates).
		target     = 35
		dropRate   = 0.05 // chance any call is dropped before delivery
		churnEvery = 10   // lookups between fail/recover rotations
	)
	policy := core.LookupPolicy{
		Timeout: 250 * time.Millisecond,
		Retry:   transport.RetryPolicy{Attempts: 3, Backoff: 200 * time.Microsecond},
	}
	configs := []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 20},
		{Scheme: wire.RandomServer, X: 20},
		{Scheme: wire.RoundRobin, Y: 3},
		{Scheme: wire.Hash, Y: 2},
	}
	t := &Table{
		ID:     "ext-availability",
		Title:  fmt.Sprintf("Achieved-t rate under churn (t=%d, %d%% call drops, storage %d)", target, int(dropRate*100), canonicalBudget),
		XLabel: "Failed",
		Columns: []string{
			"Full sat%", "Fixed sat%", "RandomServer sat%", "Round sat%", "Hash sat%",
		},
		Notes: []string{
			fmt.Sprintf("lookup policy: %v deadline, %d attempts/probe, backoff %v then %v, each cut by up to 50%% jitter",
				policy.Timeout, policy.Retry.Attempts, policy.Retry.Backoff, 2*policy.Retry.Backoff),
			fmt.Sprintf("churn: the failed set rotates every %d lookups; drops are injected by the chaos transport", churnEvery),
		},
	}
	runs := max(1, fid.Runs/5)
	lookups := min(max(2*churnEvery, fid.Lookups/10), 200)
	for failed := 0; failed <= 8; failed += 2 {
		rates := make([]float64, len(configs))
		for ci, cfg := range configs {
			var satS stats.Summary
			for run := 0; run < runs; run++ {
				rate, err := availabilityRun(rng, cfg, policy, target, failed, dropRate, lookups, churnEvery)
				if err != nil {
					return nil, err
				}
				satS.Observe(rate * 100)
			}
			rates[ci] = satS.Mean()
		}
		t.AddRow(fmt.Sprintf("%d/%d", failed, canonicalN), rates...)
	}
	return t, nil
}

// availabilityRun measures one instance's satisfied fraction over a
// churning cluster: k servers are down at any time, and the failed set
// rotates every churnEvery lookups.
func availabilityRun(rng *stats.RNG, cfg wire.Config, policy core.LookupPolicy, target, k int, dropRate float64, lookups, churnEvery int) (float64, error) {
	if cfg.Scheme == wire.Hash && cfg.Seed == 0 {
		cfg.Seed = rng.Uint64()
	}
	cl := cluster.New(canonicalN, rng.Split())
	svc, err := core.NewService(cl.Caller(),
		core.WithDefaultConfig(cfg),
		core.WithSeed(rng.Uint64()),
		core.WithLookupPolicy(policy))
	if err != nil {
		return 0, err
	}
	entries := make([]core.Entry, canonicalH)
	for i := range entries {
		entries[i] = fmt.Sprintf("v%03d", i)
	}
	if err := svc.Place(context.Background(), "k", entries); err != nil {
		return 0, err
	}
	for i := 0; i < canonicalN; i++ {
		cl.SetDropRate(i, dropRate)
	}
	failedSet := rng.SampleInts(canonicalN, k)
	for _, s := range failedSet {
		cl.Fail(s)
	}
	satisfied := 0
	for i := 0; i < lookups; i++ {
		if k > 0 && i > 0 && i%churnEvery == 0 {
			// Rotate the oldest failure onto a random server that is
			// neither still failed nor the one just recovered.
			old := failedSet[0]
			cl.Recover(old)
			failedSet = failedSet[1:]
			next := old
			for next == old || contains(failedSet, next) {
				next = rng.IntN(canonicalN)
			}
			failedSet = append(failedSet, next)
			cl.Fail(next)
		}
		res, err := svc.PartialLookup(context.Background(), "k", target)
		if err != nil && !errors.Is(err, core.ErrPartialResult) {
			// With k servers down and drops injected, a probe sequence
			// can find no live server at all; that is an availability
			// miss, not a harness error.
			if !errors.Is(err, strategy.ErrNoLiveServers) {
				return 0, err
			}
		}
		if err == nil && res.Satisfied(target) {
			satisfied++
		}
	}
	return float64(satisfied) / float64(lookups), nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
