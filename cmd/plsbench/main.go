// Command plsbench renders the experiments of internal/bench: every
// table and figure of the paper's evaluation section, and the extension
// experiments (ext-*) that measure efficacy — not speed; the
// performance benchmark is bench/, declared by BENCHMARK.json.
//
// Usage:
//
//	plsbench [-exp table1|fig4|...|table2|ext-...|all|ext|everything]
//	         [-fidelity quick|default|full] [-format text|md|csv] [-seed N]
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
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "plsbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("plsbench", flag.ExitOnError)
	var (
		exp      = fs.String("exp", "all", "experiment id (table1, fig4..fig14, table2, ext-...), or all | ext | everything")
		fidelity = fs.String("fidelity", "default", "simulation fidelity: quick, default, or full")
		format   = fs.String("format", "text", "output format: text, md, or csv")
		seed     = fs.Uint64("seed", 1, "master random seed")
		runs     = fs.Int("runs", 0, "override: placements averaged per data point")
		lookups  = fs.Int("lookups", 0, "override: lookups per placement")
		updates  = fs.Int("updates", 0, "override: update events per dynamic run")
		out      = fs.String("out", "", "also write the rendered tables to this file (e.g. results/availability.md)")
		telOut   = fs.String("telemetry-out", "", "write a telemetry snapshot (per-experiment runs/durations, runtime stats) as JSON to this file")
	)
	fs.Parse(args) // ExitOnError: Parse does not return an error

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

	var render func(*bench.Table) string
	switch *format {
	case "text":
		render = (*bench.Table).String
	case "md":
		render = (*bench.Table).Markdown
	case "csv":
		render = func(t *bench.Table) string {
			return fmt.Sprintf("# %s — %s\n%s", t.ID, t.Title, t.CSV())
		}
	default:
		return fmt.Errorf("unknown format %q", *format)
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
		rendered := render(table)
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
