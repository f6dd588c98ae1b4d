// Command benchdiff guards the zone-placement efficacy trajectory: it
// compares a freshly generated BENCH_zone.json against the checked-in
// baseline and exits non-zero when any gated fraction fell by more than
// the threshold (default 25%). Improvements and small noise pass.
// Performance is not gated here: bench/ with BENCHMARK.json is the
// repository's one performance benchmark.
//
// Usage:
//
//	go run ./internal/tools/benchdiff [-threshold 0.25] baseline.json current.json [baseline2.json current2.json ...]
//
// Gated per arm (zone-spread on/off): availability under every
// single-zone partition and the partition-survival fraction. Both are
// bigger-is-better. Refresh the baseline by regenerating the report
// and committing it over the old one:
//
//	go run ./cmd/plsbench -zone-bench results/baselines/BENCH_zone.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// metric is one gated number extracted from a report, keyed by a
// stable human-readable name so baseline and current line up even if
// JSON ordering changes.
type metric struct {
	name  string
	value float64
}

// zoneReport mirrors the gated subset of BENCH_zone.json. A drop past
// the threshold in either fraction is a regression (the spread arm's
// 1.0 additionally hard-fails inside the bench itself).
type zoneReport struct {
	Arms []struct {
		Spread                 bool    `json:"spread"`
		Availability           float64 `json:"availability"`
		PartitionSatisfiedFrac float64 `json:"partition_satisfied_frac"`
	} `json:"zone_arms"`
}

// extract returns the gated metrics of the zone report at path. Any
// other shape is an error, not a silent pass: a renamed field must not
// disarm the gate.
func extract(path string) ([]metric, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r zoneReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Arms) == 0 {
		return nil, fmt.Errorf("%s: unrecognized report shape (want BENCH_zone.json's zone_arms)", path)
	}
	var ms []metric
	for _, a := range r.Arms {
		name := "nospread"
		if a.Spread {
			name = "spread"
		}
		ms = append(ms,
			metric{"zone." + name + ".availability", a.Availability},
			metric{"zone." + name + ".partition_satisfied_frac", a.PartitionSatisfiedFrac},
		)
	}
	return ms, nil
}

// diff compares current against baseline metrics by name and returns
// the number of regressions past the threshold. A metric present in
// the baseline but missing from the current report counts as a
// regression for the same reason unknown shapes are errors.
func diff(baseline, current []metric, threshold float64) int {
	cur := make(map[string]float64, len(current))
	for _, m := range current {
		cur[m.name] = m.value
	}
	regressions := 0
	for _, b := range baseline {
		c, ok := cur[b.name]
		if !ok {
			fmt.Printf("FAIL %-28s missing from current report (baseline %.0f)\n", b.name, b.value)
			regressions++
			continue
		}
		delta := 0.0
		if b.value > 0 {
			delta = (c - b.value) / b.value
		}
		status := "ok  "
		if b.value > 0 && c < b.value*(1-threshold) {
			status = "FAIL"
			regressions++
		}
		fmt.Printf("%s %-28s baseline %12.0f  current %12.0f  %+6.1f%%\n",
			status, b.name, b.value, c, 100*delta)
	}
	return regressions
}

func main() {
	threshold := flag.Float64("threshold", 0.25, "maximum tolerated fractional drop vs baseline")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 || len(args)%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.25] baseline.json current.json [...]")
		os.Exit(2)
	}
	fail := 0
	for i := 0; i < len(args); i += 2 {
		base, err := extract(args[i])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		cur, err := extract(args[i+1])
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		fmt.Printf("== %s vs %s (threshold %.0f%%)\n", args[i+1], args[i], 100**threshold)
		fail += diff(base, cur, *threshold)
	}
	if fail > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) regressed beyond %.0f%%\n", fail, 100**threshold)
		os.Exit(1)
	}
}
