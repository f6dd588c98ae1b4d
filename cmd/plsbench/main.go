// Command plsbench renders the experiments of internal/experiments: every
// table and figure of the paper's evaluation section, and the extension
// experiments (ext-*) that measure efficacy — not speed; the
// performance benchmark is bench/, declared by BENCHMARK.json.
//
// Usage:
//
//	plsbench [-exp table1|fig4|...|table2|ext-...|all|ext|everything]
//	         [-fidelity quick|default|high|full] [-format text|md|csv] [-seed N]
//
// At -fidelity full the runner approaches the paper's stated fidelity
// (5000 runs per data point) and can take many minutes; default keeps
// each experiment in the seconds-to-a-minute range with the same curve
// shapes.
//
// The tables go to stdout and progress lines to stderr, so
// `plsbench -exp everything > results.txt` archives every table.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "plsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("plsbench", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id (table1, fig4..fig14, table2, ext-...), or all | ext | everything")
		fidelity = fs.String("fidelity", "default", "simulation fidelity: quick, default, high, or full")
		format   = fs.String("format", "text", "output format: text, md, or csv")
		seed     = fs.Uint64("seed", 1, "master random seed")
		telOut   = fs.String("telemetry-out", "", "write a telemetry snapshot (per-experiment runs/durations, runtime stats) as JSON to this file")
	)
	fs.Parse(args) // ExitOnError: Parse does not return an error

	var fid experiments.Fidelity
	switch *fidelity {
	case "quick":
		fid = experiments.Quick
	case "default":
		fid = experiments.Default
	case "high":
		fid = experiments.High
	case "full":
		fid = experiments.Paper
	default:
		return fmt.Errorf("unknown fidelity %q", *fidelity)
	}

	var render func(*experiments.Table) string
	switch *format {
	case "text":
		render = (*experiments.Table).String
	case "md":
		render = (*experiments.Table).Markdown
	case "csv":
		render = func(t *experiments.Table) string {
			return fmt.Sprintf("# %s — %s\n%s", t.ID, t.Title, t.CSV())
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	var selected []experiments.Experiment
	switch *exp {
	case "all":
		selected = experiments.Experiments()
	case "ext":
		selected = experiments.ExtensionExperiments()
	case "everything":
		selected = append(experiments.Experiments(), experiments.ExtensionExperiments()...)
	default:
		e, err := experiments.Find(*exp)
		if err != nil {
			return err
		}
		selected = []experiments.Experiment{e}
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

	for _, e := range selected {
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
		fmt.Println(render(table))
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	return writeTelemetry()
}
