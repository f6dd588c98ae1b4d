package experiments

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// ExtSelect measures the failure-aware server selector's effect on the
// paper's client lookup cost (servers contacted per lookup, Sec. 4.2)
// and on lookup latency, under a chaos-injected cluster with skewed
// latencies and two drop-prone servers. The identical seeded workload
// runs twice — selector off, then on. Every column reproduces from the
// seed: the µs columns are the cluster's virtual time, the injected
// latency summed along each lookup's probes, and the selector scores
// servers by that same clock.
func ExtSelect(_ Fidelity, seed uint64) (*Table, error) {
	const (
		servers  = 8
		keys     = 32
		entries  = 40
		target   = 22
		rounds   = 15
		dropRate = 0.6
	)
	dropServers := []int{1, 5}
	key := func(k int) string { return fmt.Sprintf("sk-%d", k) }

	t := &Table{
		ID: "ext-select",
		Title: fmt.Sprintf("Failure-aware selector on vs. off under chaos (Hash-2, %d servers, %d keys x %d entries, t=%d, %d rounds)",
			servers, keys, entries, target, rounds),
		XLabel:  "Selector",
		Columns: []string{"Lookups", "Satisfied", "Contacted/lookup", "Mean us", "P99 us", "Cache hits", "Cache misses", "Demotions"},
		Notes: []string{
			fmt.Sprintf("chaos: latency 100..700us by server; servers %v pay 900us and drop %d%% of calls", dropServers, int(dropRate*100)),
			"us columns are virtual time: the injected latency summed over each lookup's probes",
		},
	}
	for _, on := range []bool{false, true} {
		// -seed 1 is the scenario the docs quote (RNG seed 7).
		rng := stats.NewRNG(seed + 6)
		cl := newCluster(servers, rng.Split())
		opts := []core.Option{
			core.WithSeed(rng.Uint64()),
			core.WithDefaultConfig(core.Config{Scheme: core.Hash, Y: 2, Seed: 99}),
		}
		// Registered in both arms so the off arm reads its zeros.
		sm := telemetry.NewSelectorMetrics(telemetry.NewRegistry())
		label := "off"
		if on {
			label = "on"
			opts = append(opts, core.WithSelector(selector.New(servers, selector.Options{Metrics: sm})))
		}
		svc, err := core.NewService(cl.Caller(), opts...)
		if err != nil {
			return nil, err
		}
		// Working set first, faults second: placement traffic is clean,
		// the measured lookups run entirely under chaos.
		for k := 0; k < keys; k++ {
			if err := svc.Place(ctxB(), key(k), entry.Synthetic(entries)); err != nil {
				return nil, fmt.Errorf("ext-select: place %s: %w", key(k), err)
			}
		}
		// The drop-prone servers also pay extra latency before failing —
		// the shape a selector exists for: probing them costs time and
		// rarely pays.
		for i := 0; i < servers; i++ {
			cl.Chaos().SetLatency(i, time.Duration(i%4)*200*time.Microsecond+100*time.Microsecond, 100*time.Microsecond)
		}
		for _, i := range dropServers {
			cl.Chaos().SetLatency(i, 900*time.Microsecond, 200*time.Microsecond)
			cl.Chaos().SetDropRate(i, dropRate)
		}

		var lats []time.Duration
		var total time.Duration
		satisfied, contacted := 0, 0
		clock := cl.Chaos().Clock()
		for r := 0; r < rounds; r++ {
			for k := 0; k < keys; k++ {
				start := clock.Now()
				res, err := svc.PartialLookup(ctxB(), key(k), target)
				d := clock.Now().Sub(start)
				if err != nil {
					return nil, fmt.Errorf("ext-select: lookup %s: %w", key(k), err)
				}
				lats = append(lats, d)
				total += d
				contacted += res.Contacted
				if res.Satisfied(target) {
					satisfied++
				}
			}
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		n := float64(len(lats))
		t.AddRow(label,
			n, float64(satisfied), float64(contacted)/n,
			float64(total)/n/float64(time.Microsecond),
			float64(lats[int(0.99*(n-1))])/float64(time.Microsecond),
			float64(sm.CacheHits.Value()), float64(sm.CacheMisses.Value()), float64(sm.Demotions.Value()))
	}
	return t, nil
}
