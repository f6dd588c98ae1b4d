package experiments

// Trace-driven workloads (YCSB-style): a keyspace with Zipf-distributed
// popularity, an initial per-key population, and a mixed stream of
// lookup/add/delete operations. Where the Sec. 6.1 stream exercises one
// key's steady-state churn in depth, a trace exercises breadth — many
// keys, skewed access, the regime the 10k-node scale target cares
// about, where route caches and zone-aware ordering either pay off on
// the hot keys or don't. ext-trace replays one.

import (
	"fmt"
	"slices"

	"repro/internal/entry"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/topo"
	"repro/internal/wire"
)

// traceOp is one operation against one key. Entry is set for add and
// delete ops only.
type traceOp struct {
	Kind  OpKind
	Key   int // index into the keyspace; key name is "k<Key>"
	Entry entry.Entry
}

// traceConfig parameterizes a trace.
type traceConfig struct {
	// Keys is the keyspace size.
	Keys int
	// EntriesPerKey is the initial population placed for every key.
	EntriesPerKey int
	// Ops is the number of operations to generate.
	Ops int
	// ZipfS is the popularity exponent: key rank i is drawn with weight
	// 1/i^s. YCSB's default skew is 0.99; 0 means uniform.
	ZipfS float64
	// LookupFrac is the fraction of ops that are lookups; the remainder
	// splits evenly between adds and deletes (a delete against an empty
	// key becomes an add, so the population never goes negative).
	LookupFrac float64
}

func (c traceConfig) validate() error {
	if c.Keys <= 0 {
		return fmt.Errorf("experiments: trace Keys must be > 0, got %d", c.Keys)
	}
	if c.EntriesPerKey < 0 {
		return fmt.Errorf("experiments: trace EntriesPerKey must be >= 0, got %d", c.EntriesPerKey)
	}
	if c.Ops < 0 {
		return fmt.Errorf("experiments: trace Ops must be >= 0, got %d", c.Ops)
	}
	if c.ZipfS < 0 {
		return fmt.Errorf("experiments: trace ZipfS must be >= 0, got %g", c.ZipfS)
	}
	if c.LookupFrac < 0 || c.LookupFrac > 1 {
		return fmt.Errorf("experiments: trace LookupFrac must be in [0,1], got %g", c.LookupFrac)
	}
	return nil
}

// keyName returns the service key for keyspace index i.
func keyName(i int) string { return fmt.Sprintf("k%d", i) }

// trace is a generated workload: the initial population of every key
// (placed before the clock starts) and the operation stream.
type trace struct {
	Initial [][]entry.Entry
	Ops     []traceOp
}

// generateTrace builds a trace. Entry names are globally unique
// ("e<id>") so cross-key collisions cannot mask placement bugs.
// Deletes target a uniformly random live entry of the drawn key;
// the generator tracks the live population so the stream is always
// applicable (no delete of an absent entry).
func generateTrace(rng *stats.RNG, cfg traceConfig) (trace, error) {
	if err := cfg.validate(); err != nil {
		return trace{}, err
	}
	var tr trace
	var names entryNames

	live := make([][]entry.Entry, cfg.Keys)
	tr.Initial = make([][]entry.Entry, cfg.Keys)
	for k := range tr.Initial {
		tr.Initial[k] = make([]entry.Entry, cfg.EntriesPerKey)
		for i := range tr.Initial[k] {
			tr.Initial[k][i] = names.next()
		}
		live[k] = slices.Clone(tr.Initial[k])
	}

	zipf := stats.NewZipf(cfg.Keys, cfg.ZipfS)
	tr.Ops = make([]traceOp, 0, cfg.Ops)
	for len(tr.Ops) < cfg.Ops {
		k := zipf.Sample(rng) - 1
		u := rng.Float64()
		switch {
		case u < cfg.LookupFrac:
			tr.Ops = append(tr.Ops, traceOp{Kind: OpLookup, Key: k})
		case u < cfg.LookupFrac+(1-cfg.LookupFrac)/2 || len(live[k]) == 0:
			v := names.next()
			live[k] = append(live[k], v)
			tr.Ops = append(tr.Ops, traceOp{Kind: OpAdd, Key: k, Entry: v})
		default:
			i := rng.IntN(len(live[k]))
			v := live[k][i]
			live[k][i] = live[k][len(live[k])-1]
			live[k] = live[k][:len(live[k])-1]
			tr.Ops = append(tr.Ops, traceOp{Kind: OpDelete, Key: k, Entry: v})
		}
	}
	return tr, nil
}

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
// The selector orders servers by their latency on the cluster's virtual
// clock, so every column reproduces from the seed; ext-trace is the
// repository's scale check for topologies far beyond a hand-sized
// cluster, and it ignores the Fidelity.
func ExtTrace(_ Fidelity, seed uint64) (*Table, error) {
	return traceAtScale.run(seed)
}

func (sc traceScenario) run(seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	cfg := wire.Config{Scheme: wire.Hash, Y: traceY, Seed: rng.Uint64(), ZoneSpread: true}
	tr, err := generateTrace(rng.Split(), traceConfig{
		Keys:          sc.keys,
		EntriesPerKey: sc.perKey,
		Ops:           sc.ops,
		ZipfS:         traceZipfS,
		LookupFrac:    traceLookupFrac,
	})
	if err != nil {
		return nil, err
	}
	cl := newCluster(sc.servers, rng.Split())
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
		if err := drv.Place(ctxB(), caller, keyName(k), initial); err != nil {
			return nil, fmt.Errorf("ext-trace: place %s: %w", keyName(k), err)
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
	}
	// phase replays ops and adds their row, counting messages and hops
	// from its first op on.
	phase := func(name string, ops []traceOp) {
		cl.ResetMessages()
		cl.Chaos().ResetZoneCalls()
		var lookups, satisfied, unreachable, updates, updateErrs int
		var achieved, contacted stats.Summary
		for _, op := range ops {
			key := keyName(op.Key)
			if op.Kind == OpLookup {
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
			if op.Kind == OpDelete {
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
