package experiments

import (
	"fmt"

	"repro/internal/stats"
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
		{ID: "ext-trace", Title: "Zipf trace on 10 000 emulated servers with a region partitioned halfway", Run: ExtTrace},
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
	const steady = 100
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
			dr, err := newChurnRun(rng, cfg, "exp", steady, updates)
			if err != nil {
				return nil, err
			}
			m, err := dr.replay()
			if err != nil {
				return nil, dr.close(err)
			}
			msgs.Observe(float64(m) / float64(updates))
			storage.Observe(float64(dr.cluster.TotalStorage(dr.key)))
			u, err := dr.unfairness(dr.live.Members(), 1, fid.Lookups)
			if err = dr.close(err); err != nil {
				return nil, err
			}
			unfair.Observe(u)
		}
		t.AddRow(cfg.String(), unfair.Mean(), storage.Mean(), msgs.Mean())
	}
	return t, nil
}
