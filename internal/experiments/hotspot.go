package experiments

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// ExtHotSpot quantifies the conclusion's headline claim: "partial
// lookup services are insensitive to the popular key or hot-spot
// problems which plague traditional hashing-based lookup services."
//
// A multi-key catalog receives Zipf-distributed lookups; for each
// scheme the table reports the hottest server's share of the query
// messages (ideal: 1/n = 10%) and the mean lookup cost. KeyPartition
// is the Fig. 1 "traditional hashing" baseline where the hot key's
// whole load lands on one server.
func ExtHotSpot(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	const (
		numKeys = 100
		perKey  = 40
		target  = 3
		zipfS   = 1.1
	)
	configs := []wire.Config{
		{Scheme: wire.KeyPartition},
		{Scheme: wire.FullReplication},
		{Scheme: wire.RoundRobin, Y: 2},
		{Scheme: wire.Hash, Y: 2},
	}
	t := &Table{
		ID:      "ext-hotspot",
		Title:   fmt.Sprintf("Hot-spot load: hottest server's share of %d Zipf lookups over %d keys (t=%d)", fid.Runs*fid.Lookups, numKeys, target),
		XLabel:  "Scheme",
		Columns: []string{"MaxServerShare%", "IdealShare%", "MeanLookupCost"},
		Notes: []string{
			"conclusion claim: partial lookups are insensitive to hot keys; key-hashed services concentrate the hot key's load on one server",
		},
	}
	for _, cfg := range configs {
		var maxShare, cost stats.Summary
		for run := 0; run < max(1, fid.Runs/4); run++ {
			runCfg := cfg
			if runCfg.Scheme == wire.Hash {
				runCfg.Seed = rng.Uint64()
			}
			cl := cluster.New(canonicalN, rng.Split())
			drv, err := strategy.New(runCfg, rng.Split())
			if err != nil {
				return nil, err
			}
			ctx := context.Background()
			keys := make([]string, numKeys)
			for k := range keys {
				keys[k] = fmt.Sprintf("key-%03d", k)
				es := make([]entry.Entry, perKey)
				for i := range es {
					es[i] = fmt.Sprintf("%s/e%d", keys[k], i)
				}
				if err := drv.Place(ctx, cl.Caller(), keys[k], es); err != nil {
					return nil, err
				}
			}
			pop := stats.NewZipf(numKeys, zipfS)
			cl.ResetMessages()
			var contacted stats.Summary
			for q := 0; q < fid.Lookups; q++ {
				key := keys[pop.Sample(rng)-1]
				res, err := drv.PartialLookup(ctx, cl.Caller(), key, target)
				if err != nil {
					return nil, err
				}
				contacted.Observe(float64(res.Contacted))
			}
			total := cl.Messages()
			var hottest int64
			for s := 0; s < canonicalN; s++ {
				if p := cl.ProcessedBy(s); p > hottest {
					hottest = p
				}
			}
			if total > 0 {
				maxShare.Observe(100 * float64(hottest) / float64(total))
			}
			cost.Observe(contacted.Mean())
		}
		t.AddRow(cfg.String(), maxShare.Mean(), 100.0/canonicalN, cost.Mean())
	}
	return t, nil
}
