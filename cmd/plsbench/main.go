// Command plsbench regenerates every table and figure of the paper's
// evaluation section, and the four scenario reports that measure
// efficacy (not speed; the performance benchmark is bench/, declared by
// BENCHMARK.json).
//
// Usage:
//
//	plsbench [-exp table1|fig4|...|table2|all] [-fidelity quick|default|full]
//	         [-format text|md] [-seed N]
//	plsbench -select-bench BENCH_select.json [-select-bench-rounds 15]
//	plsbench -repair-bench BENCH_repair.json [-repair-bench-rounds 8]
//	plsbench -membership-bench BENCH_membership.json [-membership-bench-rounds 6]
//	plsbench -zone-bench BENCH_zone.json
//
// The second form compares the failure-aware selector on vs. off over
// an identical seeded chaos workload: servers contacted per lookup and
// tail latency. The third form runs the kill/replace churn loop with
// anti-entropy repair on vs. off and reports the achieved-t retention
// curve per scheme. The fourth form drives join/drain rounds through
// every placement scheme — entries moved, rebalance wall time,
// availability during churn — and compares Hash-y against multi-probe
// consistent hashing on placement load skew. The fifth form compares
// zone-spread placement on vs. off on a rack/DC/region topology.
//
// At -fidelity full the runner approaches the paper's stated fidelity
// (5000 runs per data point) and can take many minutes; default keeps
// each experiment in the seconds-to-a-minute range with the same curve
// shapes.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plsbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1, fig4..fig14, table2, ext-rsreplace, ext-overlay), or all | ext | everything")
		fidelity = flag.String("fidelity", "default", "simulation fidelity: quick, default, or full")
		format   = flag.String("format", "text", "output format: text, md, or csv")
		seed     = flag.Uint64("seed", 1, "master random seed")
		runs     = flag.Int("runs", 0, "override: placements averaged per data point")
		lookups  = flag.Int("lookups", 0, "override: lookups per placement")
		updates  = flag.Int("updates", 0, "override: update events per dynamic run")
		out      = flag.String("out", "", "also write the rendered tables to this file (e.g. results/availability.md)")
		telOut   = flag.String("telemetry-out", "", "write a telemetry snapshot (per-experiment runs/durations, runtime stats) as JSON to this file")
		selOut   = flag.String("select-bench", "", "run the selector on/off comparison under chaos instead of experiments and write BENCH_select.json-style output to this file")
		selRnds  = flag.Int("select-bench-rounds", 15, "passes over the working set per select-bench arm")
		repOut   = flag.String("repair-bench", "", "run the anti-entropy churn benchmark instead of experiments and write BENCH_repair.json-style output to this file")
		repRnds  = flag.Int("repair-bench-rounds", 8, "kill/replace rounds per repair-bench arm")
		memOut   = flag.String("membership-bench", "", "run the join/drain churn benchmark instead of experiments and write BENCH_membership.json-style output to this file")
		memRnds  = flag.Int("membership-bench-rounds", 6, "join+drain rounds per membership-bench scheme")
		zoneOut  = flag.String("zone-bench", "", "run the zone-spread on/off availability comparison instead of experiments and write BENCH_zone.json-style output to this file")
	)
	flag.Parse()

	if *selOut != "" {
		return runSelectBench(*selOut, *selRnds)
	}
	if *repOut != "" {
		return runRepairBench(*repOut, *repRnds)
	}
	if *memOut != "" {
		return runMembershipBench(*memOut, *memRnds)
	}
	if *zoneOut != "" {
		return runZoneBench(*zoneOut)
	}

	var fid bench.Fidelity
	switch *fidelity {
	case "quick":
		fid = bench.Quick
	case "default":
		fid = bench.Default
	case "full":
		fid = bench.Paper
	default:
		return fmt.Errorf("unknown fidelity %q", *fidelity)
	}
	if *runs > 0 {
		fid.Runs = *runs
	}
	if *lookups > 0 {
		fid.Lookups = *lookups
	}
	if *updates > 0 {
		fid.Updates = *updates
	}

	var experiments []bench.Experiment
	switch *exp {
	case "all":
		experiments = bench.Experiments()
	case "ext":
		experiments = bench.ExtensionExperiments()
	case "everything":
		experiments = append(bench.Experiments(), bench.ExtensionExperiments()...)
	default:
		e, err := bench.Find(*exp)
		if err != nil {
			return err
		}
		experiments = []bench.Experiment{e}
	}

	// Telemetry over the harness itself: experiments completed, wall
	// clock per experiment, and runtime stats — snapshotted to
	// -telemetry-out so CI can archive the perf trajectory per commit.
	reg := telemetry.NewRegistry()
	expCount := reg.NewCounter("bench.experiments")
	expFailed := reg.NewCounter("bench.experiments_failed")
	expDuration := reg.NewDurationHistogram("bench.experiment_duration", telemetry.DefaultLatencyBuckets)
	telemetry.RegisterRuntimeMetrics(reg)
	writeTelemetry := func() error {
		if *telOut == "" {
			return nil
		}
		data, err := reg.Snapshot().MarshalIndent()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*telOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("write -telemetry-out file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "[wrote %s]\n", *telOut)
		return nil
	}

	var archive strings.Builder
	for _, e := range experiments {
		start := time.Now()
		table, err := e.Run(fid, *seed)
		expDuration.ObserveDuration(time.Since(start))
		if err != nil {
			expFailed.Inc()
			if werr := writeTelemetry(); werr != nil {
				fmt.Fprintln(os.Stderr, "plsbench:", werr)
			}
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		expCount.Inc()
		var rendered string
		switch *format {
		case "md":
			rendered = table.Markdown()
		case "csv":
			rendered = fmt.Sprintf("# %s — %s\n%s", table.ID, table.Title, table.CSV())
		default:
			rendered = table.String()
		}
		fmt.Println(rendered)
		archive.WriteString(rendered)
		archive.WriteByte('\n')
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if *out != "" {
		if err := os.WriteFile(*out, []byte(archive.String()), 0o644); err != nil {
			return fmt.Errorf("write -out file: %w", err)
		}
		fmt.Fprintf(os.Stderr, "[wrote %s]\n", *out)
	}
	return writeTelemetry()
}
