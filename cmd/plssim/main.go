// Command plssim runs one parameterized dynamic-update simulation
// (Sec. 6 of the paper) and reports the steady-state behavior of a
// chosen strategy: update overhead, lookup satisfaction, storage, and
// coverage over time.
//
// Example — the paper's Fig. 12 point (Fixed-18 = t 15 + cushion 3):
//
//	plssim -scheme fixed -x 18 -t 15 -servers 10 -steady 100 \
//	       -updates 20000 -lifetime exp -runs 20
//
// A second mode (-mode trace) replays a YCSB-style multi-key trace with
// Zipf key popularity against a large emulated cluster — the 10k-node
// scale scenario — optionally under a zone topology with a mid-run
// whole-zone partition:
//
//	plssim -mode trace -scheme hash -y 3 -servers 10000 \
//	       -topology 4x5x25 -spread -client-zone r0/d0/k0 \
//	       -zone-partition r1 -keys 200 -entries-per-key 100 -ops 2000
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/selector"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plssim:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scheme   = flag.String("scheme", "round", "strategy: full, fixed, randomserver, round, hash, multiprobe, partition")
		x        = flag.Int("x", 0, "x parameter (fixed, randomserver)")
		y        = flag.Int("y", 1, "y parameter (round, hash)")
		n        = flag.Int("servers", 10, "number of servers")
		steady   = flag.Int("steady", 100, "steady-state number of entries h")
		target   = flag.Int("t", 15, "client target answer size")
		updates  = flag.Int("updates", 10000, "update events per run")
		lifetime = flag.String("lifetime", "exp", "entry lifetime distribution: exp or zipf")
		gap      = flag.Float64("gap", 10, "mean add inter-arrival time")
		runs     = flag.Int("runs", 10, "independent runs to average")
		lookups  = flag.Int("lookups", 500, "post-run lookups for satisfaction/unfairness")
		seed     = flag.Uint64("seed", 1, "master seed")
		telOut   = flag.String("telemetry-out", "", "write the final run's cluster telemetry snapshot as JSON to this file")

		mode      = flag.String("mode", "classic", "classic (Sec. 6 single-key stream) or trace (multi-key Zipf trace)")
		topoSpec  = flag.String("topology", "", "zone topology spec (RxDxK, explicit, or @file); empty = flat cluster")
		spread    = flag.Bool("spread", false, "zone-spread placement (requires -topology; Hash/MultiProbe only)")
		clientTop = flag.String("client-zone", "", "client zone path for zone-aware selection and partition exposure")
		zonePart  = flag.String("zone-partition", "", "zone path to partition mid-trace (trace mode)")
		partAt    = flag.Float64("partition-at", 0.5, "fraction of trace ops after which the zone partition fires")
		keys      = flag.Int("keys", 100, "trace keyspace size")
		perKey    = flag.Int("entries-per-key", 100, "initial entries placed per trace key")
		ops       = flag.Int("ops", 2000, "trace operations")
		zipfS     = flag.Float64("zipf-s", 0.99, "trace key popularity Zipf exponent (0 = uniform)")
		lookFrac  = flag.Float64("lookup-frac", 0.8, "fraction of trace ops that are lookups")
	)
	flag.Parse()

	cfg, err := cliutil.ParseScheme(*scheme, *x, *y, 0)
	if err != nil {
		return err
	}
	cfg.ZoneSpread = *spread
	if *mode == "trace" {
		return runTrace(cfg, traceParams{
			servers:    *n,
			target:     *target,
			seed:       *seed,
			topoSpec:   *topoSpec,
			clientZone: *clientTop,
			zonePart:   *zonePart,
			partAt:     *partAt,
			keys:       *keys,
			perKey:     *perKey,
			ops:        *ops,
			zipfS:      *zipfS,
			lookupFrac: *lookFrac,
		})
	}
	if *mode != "classic" {
		return fmt.Errorf("unknown -mode %q (want classic or trace)", *mode)
	}
	lt, err := sim.DefaultLifetime(*lifetime, *gap, *steady)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(*seed)

	var msgs, failFrac, storage, coverage, satisfied stats.Summary
	for run := 0; run < *runs; run++ {
		runCfg := cfg
		if runCfg.Scheme == wire.Hash {
			runCfg.Seed = rng.Uint64()
		}
		stream, err := sim.Generate(rng.Split(), sim.StreamConfig{
			MeanArrivalGap: *gap,
			SteadyState:    *steady,
			Lifetime:       lt,
			Updates:        *updates,
		})
		if err != nil {
			return err
		}
		cl := cluster.New(*n, rng.Split())
		// A fresh registry per run (metric names are unique per
		// registry); the last run's snapshot is what -telemetry-out
		// persists.
		var reg *telemetry.Registry
		if *telOut != "" {
			reg = telemetry.NewRegistry()
			cl.EnableTelemetry(reg)
		}
		drv, err := strategy.New(runCfg, rng.Split())
		if err != nil {
			return err
		}
		ctx := context.Background()
		if err := drv.Place(ctx, cl.Caller(), "k", stream.Initial); err != nil {
			return err
		}
		cl.ResetMessages()

		failTime, totalTime := 0.0, 0.0
		node0 := cl.Node(0)
		err = sim.ReplayTimed(stream.Events, func(ev sim.Event) error {
			switch ev.Kind {
			case sim.EventAdd:
				return drv.Add(ctx, cl.Caller(), "k", ev.Entry)
			default:
				return drv.Delete(ctx, cl.Caller(), "k", ev.Entry)
			}
		}, func(from, to float64) error {
			// Time-weighted failure probe is exact for the replicated
			// schemes (identical servers); for the partitioned schemes
			// it is a cheap proxy (server 0 below t/n of the target).
			d := to - from
			totalTime += d
			if node0.LocalLen("k") < perServerTarget(runCfg, *target, *n) {
				failTime += d
			}
			return nil
		})
		if err != nil {
			return err
		}
		msgs.Observe(float64(cl.Messages()))
		if totalTime > 0 {
			failFrac.Observe(100 * failTime / totalTime)
		}
		storage.Observe(float64(cl.TotalStorage("k")))
		coverage.Observe(float64(metrics.Coverage(cl.Snapshot("k"))))

		cost, err := metrics.MeasureLookupCost(func() (strategy.Result, error) {
			return drv.PartialLookup(ctx, cl.Caller(), "k", *target)
		}, *target, *lookups)
		if err != nil {
			return err
		}
		satisfied.Observe(cost.SatisfiedFraction * 100)

		if reg != nil && run == *runs-1 {
			data, err := reg.Snapshot().MarshalIndent()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*telOut, append(data, '\n'), 0o644); err != nil {
				return fmt.Errorf("write -telemetry-out file: %w", err)
			}
			fmt.Fprintf(os.Stderr, "[wrote %s]\n", *telOut)
		}
	}

	fmt.Printf("plssim: %v on %d servers, steady h=%d, %d updates x %d runs (%s lifetimes)\n",
		cfg, *n, *steady, *updates, *runs, *lifetime)
	fmt.Printf("  update messages:       %10.1f ± %.1f per run (%.2f per update)\n",
		msgs.Mean(), msgs.CI95(), msgs.Mean()/float64(*updates))
	fmt.Printf("  server-0 thin time:    %10.3f %% of execution time\n", failFrac.Mean())
	fmt.Printf("  final storage:         %10.1f entries\n", storage.Mean())
	fmt.Printf("  final coverage:        %10.1f of ~%d live entries\n", coverage.Mean(), *steady)
	fmt.Printf("  lookup(t=%d) satisfied: %9.2f %% of %d lookups\n", *target, satisfied.Mean(), *lookups)
	return nil
}

// traceParams bundles the -mode trace flag set.
type traceParams struct {
	servers    int
	target     int
	seed       uint64
	topoSpec   string
	clientZone string
	zonePart   string
	partAt     float64
	keys       int
	perKey     int
	ops        int
	zipfS      float64
	lookupFrac float64
}

// tracePhase accumulates per-phase (pre-/post-partition) measures.
type tracePhase struct {
	name                 string
	lookups, satisfied   int
	lookupErrs           int
	updates, updateErrs  int
	achieved, contacted  stats.Summary
	msgs                 int64
	zone                 [topo.NumDistances]uint64
	zoneBase, zoneLabels bool
}

func (ph *tracePhase) print(t int, tp *topo.Topology) {
	fmt.Printf("  [%s] %d lookups, %d updates\n", ph.name, ph.lookups, ph.updates)
	if ph.lookups > 0 {
		fmt.Printf("    satisfied(t=%d):   %8.2f %%   unreachable: %d\n",
			t, 100*float64(ph.satisfied)/float64(ph.lookups), ph.lookupErrs)
		fmt.Printf("    achieved entries:  %8.2f mean\n", ph.achieved.Mean())
		fmt.Printf("    servers contacted: %8.2f mean per lookup\n", ph.contacted.Mean())
	}
	if ph.updateErrs > 0 {
		fmt.Printf("    update errors:     %8d\n", ph.updateErrs)
	}
	fmt.Printf("    messages:          %8d\n", ph.msgs)
	if tp != nil {
		labels := [topo.NumDistances]string{"same-rack", "same-dc", "same-region", "cross-region"}
		fmt.Printf("    hops:")
		for d, c := range ph.zone {
			fmt.Printf(" %s=%d", labels[d], c)
		}
		fmt.Println()
	}
}

// runTrace drives the multi-key Zipf trace scenario: place every key's
// initial population, replay the op stream, and (optionally) partition
// a zone partway through, reporting lookup quality and message/hop cost
// for each phase separately.
func runTrace(cfg wire.Config, p traceParams) error {
	rng := stats.NewRNG(p.seed)
	if cfg.Scheme == wire.Hash || cfg.Scheme == wire.MultiProbe {
		cfg.Seed = rng.Uint64()
	}
	if cfg.ZoneSpread && p.topoSpec == "" {
		return fmt.Errorf("-spread requires -topology")
	}
	if p.clientZone != "" && p.topoSpec == "" {
		return fmt.Errorf("-client-zone requires -topology")
	}
	if p.partAt < 0 || p.partAt > 1 {
		return fmt.Errorf("-partition-at must be in [0,1], got %g", p.partAt)
	}

	tr, err := sim.GenerateTrace(rng.Split(), sim.TraceConfig{
		Keys:          p.keys,
		EntriesPerKey: p.perKey,
		Ops:           p.ops,
		ZipfS:         p.zipfS,
		LookupFrac:    p.lookupFrac,
	})
	if err != nil {
		return err
	}

	cl := cluster.New(p.servers, rng.Split())
	var tp *topo.Topology
	if p.topoSpec != "" {
		tp, err = topo.Parse(p.topoSpec, p.servers)
		if err != nil {
			return err
		}
		if err := cl.SetTopology(tp); err != nil {
			return err
		}
		if p.clientZone != "" {
			cl.Chaos().SetClientZone(p.clientZone)
		}
	}
	if p.zonePart != "" && tp == nil {
		return fmt.Errorf("-zone-partition requires -topology")
	}

	drv, err := strategy.New(cfg, rng.Split())
	if err != nil {
		return err
	}
	sel := selector.New(p.servers, selector.Options{})
	if tp != nil && p.clientZone != "" {
		sel.SetTopology(tp, p.clientZone)
	}
	drv.SetSelector(sel)
	caller := selector.Observe(cl.Caller(), sel)

	ctx := context.Background()
	for k, initial := range tr.Initial {
		if err := drv.Place(ctx, caller, sim.KeyName(k), initial); err != nil {
			return fmt.Errorf("place %s: %w", sim.KeyName(k), err)
		}
	}
	cl.ResetMessages()
	cl.Chaos().ResetZoneCalls()

	cut := len(tr.Ops)
	if p.zonePart != "" {
		cut = int(p.partAt * float64(len(tr.Ops)))
	}
	phases := []*tracePhase{{name: "steady"}}
	ph := phases[0]
	var msgBase int64
	var zoneBase [topo.NumDistances]uint64
	snapshot := func(ph *tracePhase) {
		ph.msgs = cl.Messages() - msgBase
		msgBase = cl.Messages()
		if tp != nil {
			zc := cl.Chaos().ZoneCalls()
			for d := range zc {
				ph.zone[d] = zc[d] - zoneBase[d]
			}
			zoneBase = zc
		}
	}
	for i, op := range tr.Ops {
		if p.zonePart != "" && i == cut {
			snapshot(ph)
			cl.Chaos().PartitionZone(p.zonePart)
			ph = &tracePhase{name: "zone " + p.zonePart + " partitioned"}
			phases = append(phases, ph)
		}
		key := sim.KeyName(op.Key)
		switch op.Kind {
		case sim.OpLookup:
			ph.lookups++
			res, err := drv.PartialLookup(ctx, caller, key, p.target)
			if err != nil {
				ph.lookupErrs++
				continue
			}
			if res.Satisfied(p.target) {
				ph.satisfied++
			}
			ph.achieved.Observe(float64(len(res.Entries)))
			ph.contacted.Observe(float64(res.Contacted))
		case sim.OpAdd:
			ph.updates++
			if err := drv.Add(ctx, caller, key, op.Entry); err != nil {
				ph.updateErrs++
			}
		default:
			ph.updates++
			if err := drv.Delete(ctx, caller, key, op.Entry); err != nil {
				ph.updateErrs++
			}
		}
	}
	snapshot(ph)

	fmt.Printf("plssim trace: %v on %d servers, %d keys x %d entries, %d ops (zipf s=%.2f, %.0f%% lookups)\n",
		cfg, p.servers, p.keys, p.perKey, p.ops, p.zipfS, 100*p.lookupFrac)
	if tp != nil {
		fmt.Printf("  topology %s (%d racks), client zone %q, spread=%v\n",
			p.topoSpec, tp.NumRacks(), p.clientZone, cfg.ZoneSpread)
	}
	for _, ph := range phases {
		ph.print(p.target, tp)
	}
	return nil
}

// perServerTarget converts the client target into the per-server
// threshold used by the thin-time probe.
func perServerTarget(cfg wire.Config, t, n int) int {
	switch cfg.Scheme {
	case wire.FullReplication, wire.Fixed:
		return t
	case wire.RandomServer:
		if cfg.X < t {
			return cfg.X
		}
		return t
	default:
		per := t / n
		if per < 1 {
			per = 1
		}
		return per
	}
}
