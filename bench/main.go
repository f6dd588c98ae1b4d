// Command bench is the repository's end-to-end benchmark: one process
// starts a real loopback-TCP cluster of four nodes (behind plsproxy and
// on a WAL where the workload says so), drives it closed-loop with
// 4 x GOMAXPROCS clients, checks every answer against the generator's
// model, and prints every metric by name with its unit. BENCHMARK.json
// registers it; README.md in this directory defines the workloads, the
// metrics and how they are expected to interact.
//
//	go run ./bench -seed 1                        # all workloads, both modes
//	go run ./bench -workload write_durable -trace 0 -seed 3 -seconds 10
//	go run ./bench -aa 5                          # A/A self-check
//
// With -workload and -trace given, the last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 10

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four)")
		seed         = flag.Uint64("seed", 1, "seed for keys, op streams and node RNGs")
		seconds      = flag.Int("seconds", defaultSeconds, "measured seconds per run")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics, half the time traced (default: both, one after the other)")
		smoke        = flag.Bool("smoke", false, "tenth-size key spaces and warm-up, for a quick pass without bounds")
		aa           = flag.Int("aa", 0, "A/A self-check: two interleaved sets of N runs per workload, compared against the bounds")
		allowDisk    = flag.Bool("allow-disk", false, "let durable workloads keep their WAL on the same device as /")
	)
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace, *smoke, *aa, *allowDisk); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed uint64, seconds, trace int, smoke bool, aa int, allowDisk bool) error {
	if seconds < 1 || trace < -1 || trace > 1 || flag.NArg() > 0 {
		return fmt.Errorf("bad arguments (see -h)")
	}
	selected := workloads
	if workloadName != "" {
		w, ok := findWorkload(workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		selected = []workload{w}
	}
	if aa > 0 {
		return selfCheck(selected, aa, seconds, allowDisk)
	}
	modes := []bool{false, true}
	if trace >= 0 {
		modes = []bool{trace == 1}
	}
	failed := false
	for _, w := range selected {
		for _, traced := range modes {
			res, err := runWorkload(context.Background(), w, runOptions{
				seed: seed, seconds: seconds, traced: traced, smoke: smoke,
				allowDisk: allowDisk, outDir: filepath.Join("bench", "out"),
			})
			if err != nil {
				return err
			}
			if err := res.print(os.Stdout); err != nil {
				return err
			}
			failed = failed || !res.correct
		}
	}
	if failed {
		return fmt.Errorf("some operations failed or were answered wrongly")
	}
	return nil
}

// defs returns the metrics a result of this mode declares.
func (r *runResult) defs() []metricDef {
	if r.traced {
		return perLayer
	}
	return endToEnd
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// print writes the readable report and, last, the one-line JSON result.
func (r *runResult) print(out io.Writer) error {
	mode := "tracing off: end-to-end metrics"
	if r.traced {
		mode = "per-layer metrics: first half plain, second half traced"
	}
	fmt.Fprintf(out, "== %s (%s)\n", r.workload.name, mode)
	envKeys := make([]string, 0, len(r.env))
	for k := range r.env {
		envKeys = append(envKeys, k)
	}
	sort.Strings(envKeys)
	for _, k := range envKeys {
		fmt.Fprintf(out, "%-34s %s\n", k, r.env[k])
	}
	js := jsonResult{Correct: r.correct, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range r.defs() {
		js.Metrics[d.name] = jsonMetric{Value: r.metrics[d.name], Unit: d.unit}
		if !d.appliesTo(r.workload) {
			continue
		}
		fmt.Fprintf(out, "%-34s %14.4f %-9s %s\n", d.name, r.metrics[d.name], d.unit, r.detail[d.name])
	}
	fmt.Fprintf(out, "%-34s %14.6f %-9s %d of %d operations\n", "failed_frac",
		ratio(float64(r.failed), float64(r.attempted)), "fraction", r.failed, r.attempted)
	for _, n := range r.notes {
		fmt.Fprintln(out, "note:", n)
	}
	if r.tracePath != "" {
		fmt.Fprintln(out, "trace:", r.tracePath)
	}
	line, err := json.Marshal(js)
	if err != nil {
		return fmt.Errorf("%s: result: %w", r.workload.name, err)
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
