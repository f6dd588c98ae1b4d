package bench

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/metrics"
	"repro/internal/overlay"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// ExtensionExperiments returns runners for the paper's Sec. 5.3 and
// Sec. 7 variations, which the paper discusses qualitatively but does
// not plot; these quantify its claims. The last four are seeded on/off
// scenarios for subsystems built on top of the paper (selector, repair,
// live membership, zone-spread placement): fixed-size, so they ignore
// the Fidelity.
func ExtensionExperiments() []Experiment {
	return []Experiment{
		{ID: "ext-rsreplace", Title: "RandomServer cushion vs. active replacement (Sec. 5.3 alternative)", Run: ExtRSReplacement},
		{ID: "ext-overlay", Title: "Hop-limit tradeoff under limited reachability (Sec. 7.2)", Run: ExtOverlayTradeoff},
		{ID: "ext-failures", Title: "Random-failure degradation per strategy", Run: ExtRandomFailures},
		{ID: "ext-optimaly", Title: "Hash-y adaptive vs. pinned y policy", Run: ExtOptimalYPolicy},
		{ID: "ext-hotspot", Title: "Hot-key load: partial lookup vs. traditional key hashing", Run: ExtHotSpot},
		{ID: "ext-availability", Title: "Achieved-t rate under churn, drops, and a resilient lookup policy", Run: ExtAvailability},
		{ID: "ext-select", Title: "Failure-aware selector on vs. off under chaos", Run: ExtSelect},
		{ID: "ext-repair", Title: "Achieved-t under kill/replace churn, repair on vs. off", Run: ExtRepair},
		{ID: "ext-membership", Title: "Entries moved and availability per join/drain; placement load skew", Run: ExtMembership},
		{ID: "ext-zone", Title: "Zone-spread placement on vs. off under single-zone partitions", Run: ExtZone},
	}
}

// ExtRSReplacement quantifies the paper's Sec. 5.3/6.3 claim that the
// active-replacement alternative for RandomServer deletes "results in
// higher unfairness than the cushion scheme" while costing more
// messages. Both variants replay the same update stream; the table
// reports unfairness (t=1), total storage, and messages per update at
// checkpoints.
func ExtRSReplacement(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	const (
		steady = 100
		gap    = 10.0
	)
	updates := min(fid.Updates, 4000)
	cushionCfg := wire.Config{Scheme: wire.RandomServer, X: 20}
	replaceCfg := wire.Config{Scheme: wire.RandomServer, X: 20, RSReplace: true}

	t := &Table{
		ID:      "ext-rsreplace",
		Title:   fmt.Sprintf("RandomServer-20 delete handling: cushion vs. active replacement (%d updates)", updates),
		XLabel:  "Variant",
		Columns: []string{"Unfairness(t=1)", "Storage", "Msgs/update"},
		Notes: []string{
			"paper claim (Sec. 5.3): replacement is no fairer than the cushion scheme and finding a replacement is a costly operation",
		},
	}
	for _, cfg := range []wire.Config{cushionCfg, replaceCfg} {
		var unfair, storage, msgs stats.Summary
		for run := 0; run < max(1, fid.Runs/4); run++ {
			lifetime, err := sim.DefaultLifetime("exp", gap, steady)
			if err != nil {
				return nil, err
			}
			dr, err := newDynamicRun(rng, cfg, canonicalN, sim.StreamConfig{
				MeanArrivalGap: gap,
				SteadyState:    steady,
				Lifetime:       lifetime,
				Updates:        updates,
			})
			if err != nil {
				return nil, err
			}
			live := entry.NewSet(steady)
			for _, v := range dr.stream.Initial {
				live.Add(v)
			}
			dr.cluster.ResetMessages()
			for _, ev := range dr.stream.Events {
				if err := dr.apply(ev); err != nil {
					return nil, err
				}
				switch ev.Kind {
				case sim.EventAdd:
					live.Add(ev.Entry)
				case sim.EventDelete:
					live.Remove(ev.Entry)
				}
			}
			msgs.Observe(float64(dr.cluster.Messages()) / float64(updates))
			storage.Observe(float64(dr.cluster.TotalStorage(dr.key)))
			u, err := metrics.MeasureUnfairnessDebiased(func() (strategy.Result, error) {
				return dr.driver.PartialLookup(context.Background(), dr.cluster.Caller(), dr.key, 1)
			}, live.Members(), 1, fid.Lookups)
			if err != nil {
				return nil, err
			}
			unfair.Observe(u)
		}
		t.AddRow(cfg.String(), unfair.Mean(), storage.Mean(), msgs.Mean())
	}
	return t, nil
}

// ExtOverlayTradeoff measures the Sec. 7.2 tradeoff in choosing the
// hop-count limit d on an overlay of 120 participants: a small d
// keeps client-to-server distances short (cheap lookups) but requires
// many server replicas to cover everyone (expensive updates, since a
// place/add broadcast reaches every server); a large d needs few
// servers but pushes clients farther away.
func ExtOverlayTradeoff(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	const (
		participants = 120
		h            = 60
		target       = 5
	)
	t := &Table{
		ID:      "ext-overlay",
		Title:   fmt.Sprintf("Hop-limit tradeoff on a %d-participant overlay (Round-2, %d entries, t=%d)", participants, h, target),
		XLabel:  "d",
		Columns: []string{"Servers", "MeanHops", "UpdateMsgs", "Satisfied%", "ProbesPerLookup"},
		Notes: []string{
			"small d: short client-server distance but many servers (update broadcasts grow);",
			"large d: few servers but distant clients (Sec. 7.2)",
		},
	}
	g := overlay.NewRandom(participants, participants/2, rng.Split())
	for d := 1; d <= 5; d++ {
		serverNodes := overlay.GreedyPlacement(g, d)
		n := len(serverNodes)
		meanHops, err := overlay.MeanServerDistance(g, serverNodes)
		if err != nil {
			return nil, err
		}
		y := 2
		if y > n {
			y = n
		}
		cfg := wire.Config{Scheme: wire.RoundRobin, Y: y}
		cl := cluster.New(n, rng.Split())
		drv, err := strategy.New(cfg, rng.Split())
		if err != nil {
			return nil, err
		}
		ctx := context.Background()
		if err := drv.Place(ctx, cl.Caller(), "k", entry.Synthetic(h)); err != nil {
			return nil, err
		}

		// Update cost: one add through the coordinator (y stores) plus
		// the client request; Round-y deletes broadcast. We measure an
		// add+delete pair.
		cl.ResetMessages()
		if err := drv.Add(ctx, cl.Caller(), "k", "probe-entry"); err != nil {
			return nil, err
		}
		if err := drv.Delete(ctx, cl.Caller(), "k", "probe-entry"); err != nil {
			return nil, err
		}
		updateMsgs := float64(cl.Messages()) / 2

		// Lookup behavior from hop-limited clients spread around the
		// overlay.
		satisfied, probes, lookups := 0, 0, 0
		for c := 0; c < min(fid.Runs*2, participants); c++ {
			client := rng.IntN(participants)
			rc, err := overlay.Restrict(cl.Caller(), g, client, serverNodes, d)
			if err != nil {
				return nil, err
			}
			res, err := drv.PartialLookup(ctx, rc, "k", target)
			if err != nil {
				continue // client with no reachable server
			}
			lookups++
			probes += res.Contacted
			if res.Satisfied(target) {
				satisfied++
			}
		}
		satPct, probeAvg := 0.0, 0.0
		if lookups > 0 {
			satPct = 100 * float64(satisfied) / float64(lookups)
			probeAvg = float64(probes) / float64(lookups)
		}
		t.AddRow(fmt.Sprintf("%d", d), float64(n), meanHops, updateMsgs, satPct, probeAvg)
	}
	return t, nil
}
