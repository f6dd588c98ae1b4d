package bench

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/selector"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/topo"
	"repro/internal/wire"
)

// traceScenario sizes ext-trace's cluster and workload. The rest of the
// scenario is fixed: Hash-3 with zone-spread placement, a client in
// rack r0/d0/k0, t = 5, a Zipf(0.99) key popularity with 80 % lookups,
// and region r1 partitioned halfway through the trace.
type traceScenario struct {
	servers  int
	topology string // an RxDxK spec for topo.Parse
	keys     int
	perKey   int // entries placed per key before the trace starts
	ops      int
}

// traceAtScale is the registered ext-trace: 10 000 emulated servers on
// a 4-region, 20-DC, 500-rack tree.
var traceAtScale = traceScenario{servers: 10000, topology: "4x5x25", keys: 50, perKey: 50, ops: 300}

const (
	traceY          = 3
	traceTarget     = 5
	traceZipfS      = 0.99
	traceLookupFrac = 0.8
	traceClient     = "r0/d0/k0"
	tracePartition  = "r1"
)

// ExtTrace replays a YCSB-style multi-key trace with Zipf key popularity
// against a large emulated cluster on a region/DC/rack tree, and cuts
// one region off halfway through. It reports one row per phase: lookup
// quality, message cost and the zone distance of every delivered call.
// The selector orders servers by observed latency, so the contacted and
// hop columns move from run to run; ext-trace is the repository's
// scale check for topologies far beyond a hand-sized cluster, and it
// ignores the Fidelity.
func ExtTrace(_ Fidelity, seed uint64) (*Table, error) {
	return traceAtScale.run(seed)
}

func (sc traceScenario) run(seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	cfg := wire.Config{Scheme: wire.Hash, Y: traceY, Seed: rng.Uint64(), ZoneSpread: true}
	tr, err := sim.GenerateTrace(rng.Split(), sim.TraceConfig{
		Keys:          sc.keys,
		EntriesPerKey: sc.perKey,
		Ops:           sc.ops,
		ZipfS:         traceZipfS,
		LookupFrac:    traceLookupFrac,
	})
	if err != nil {
		return nil, err
	}
	cl := cluster.New(sc.servers, rng.Split())
	tp, err := topo.Parse(sc.topology, sc.servers)
	if err != nil {
		return nil, err
	}
	if err := cl.SetTopology(tp); err != nil {
		return nil, err
	}
	cl.Chaos().SetClientZone(traceClient)
	drv, err := strategy.New(cfg, rng.Split())
	if err != nil {
		return nil, err
	}
	sel := selector.New(sc.servers, selector.Options{})
	sel.SetTopology(tp, traceClient)
	drv.SetSelector(sel)
	caller := selector.Observe(cl.Caller(), sel)
	for k, initial := range tr.Initial {
		if err := drv.Place(ctxB(), caller, sim.KeyName(k), initial); err != nil {
			return nil, fmt.Errorf("ext-trace: place %s: %w", sim.KeyName(k), err)
		}
	}

	t := &Table{
		ID: "ext-trace",
		Title: fmt.Sprintf("Zipf(%.2f) trace on %d servers (%v, zone spread, %s tree of %d racks, %d keys x %d entries, %d ops, %.0f%% lookups, t=%d, client in %s)",
			traceZipfS, sc.servers, cfg, sc.topology, tp.NumRacks(), sc.keys, sc.perKey, sc.ops, 100*traceLookupFrac, traceTarget, traceClient),
		XLabel: "Phase",
		Columns: []string{
			"Lookups", "Updates", "Satisfied %", "Unreachable", "Achieved", "Contacted", "Messages",
			"Same-rack hops", "Same-DC hops", "Same-region hops", "Cross-region hops",
		},
		Notes: []string{
			"contacted and hop columns follow the selector's observed latencies and do not reproduce exactly",
		},
	}
	// phase replays ops and adds their row, counting messages and hops
	// from its first op on.
	phase := func(name string, ops []sim.TraceOp) {
		cl.ResetMessages()
		cl.Chaos().ResetZoneCalls()
		var lookups, satisfied, unreachable, updates, updateErrs int
		var achieved, contacted stats.Summary
		for _, op := range ops {
			key := sim.KeyName(op.Key)
			if op.Kind == sim.OpLookup {
				lookups++
				res, err := drv.PartialLookup(ctxB(), caller, key, traceTarget)
				if err != nil {
					unreachable++
					continue
				}
				if res.Satisfied(traceTarget) {
					satisfied++
				}
				achieved.Observe(float64(len(res.Entries)))
				contacted.Observe(float64(res.Contacted))
				continue
			}
			updates++
			update := drv.Add
			if op.Kind == sim.OpDelete {
				update = drv.Delete
			}
			if err := update(ctxB(), caller, key, op.Entry); err != nil {
				updateErrs++
			}
		}
		row := []float64{
			float64(lookups), float64(updates), 100 * float64(satisfied) / float64(lookups), float64(unreachable),
			achieved.Mean(), contacted.Mean(), float64(cl.Messages()),
		}
		for _, c := range cl.Chaos().ZoneCalls() {
			row = append(row, float64(c))
		}
		t.AddRow(name, row...)
		if updateErrs > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf("%s: %d of %d updates failed", name, updateErrs, updates))
		}
	}
	cut := len(tr.Ops) / 2
	phase("steady", tr.Ops[:cut])
	cl.Chaos().PartitionZone(tracePartition)
	phase("zone "+tracePartition+" partitioned", tr.Ops[cut:])
	return t, nil
}
