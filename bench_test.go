// Package repro's top-level benchmarks regenerate every table and
// figure of the paper's evaluation section under `go test -bench=.`,
// at reduced fidelity (run cmd/plsbench -fidelity full for
// paper-fidelity numbers). Key series points are attached to the
// benchmark output via b.ReportMetric, so a bench run shows the
// reproduced values inline.
package repro_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/wire"
)

// metricName makes a column label usable as a benchmark metric unit
// (no whitespace allowed).
func metricName(parts ...string) string {
	return strings.ReplaceAll(strings.Join(parts, "/"), " ", "")
}

// benchFidelity keeps each table/figure regeneration fast enough for a
// benchmark loop while preserving curve shapes.
var benchFidelity = experiments.Fidelity{Runs: 10, Lookups: 200, Updates: 1000}

// runExperiment executes one registered experiment b.N times and
// reports selected row values as custom benchmark metrics.
func runExperiment(b *testing.B, id string, report func(*experiments.Table, *testing.B)) {
	b.Helper()
	exp, err := experiments.Find(id)
	if err != nil {
		b.Fatal(err)
	}
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		tbl, err = exp.Run(benchFidelity, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	if tbl != nil && report != nil {
		report(tbl, b)
	}
}

// value looks up a row by label and returns its col-th value.
func value(tbl *experiments.Table, label string, col int) float64 {
	for _, row := range tbl.Rows {
		if row.Label == label {
			return row.Values[col]
		}
	}
	return -1
}

// BenchmarkTable1Storage regenerates Table 1 (storage cost, h=100,
// n=10). Metrics: measured storage per strategy.
func BenchmarkTable1Storage(b *testing.B) {
	runExperiment(b, "table1", func(tbl *experiments.Table, b *testing.B) {
		for _, row := range tbl.Rows {
			b.ReportMetric(row.Values[1], row.Label+"/entries")
		}
	})
}

// BenchmarkFig4LookupCost regenerates Figure 4 (lookup cost vs target
// answer size). Metrics: cost at t=35 per strategy.
func BenchmarkFig4LookupCost(b *testing.B) {
	runExperiment(b, "fig4", func(tbl *experiments.Table, b *testing.B) {
		for col, name := range tbl.Columns {
			b.ReportMetric(value(tbl, "35", col), name+"/servers@t35")
		}
	})
}

// BenchmarkFig6Coverage regenerates Figure 6 (coverage vs storage).
// Metrics: coverage at budget 200 per strategy family.
func BenchmarkFig6Coverage(b *testing.B) {
	runExperiment(b, "fig6", func(tbl *experiments.Table, b *testing.B) {
		for col, name := range tbl.Columns[:3] {
			b.ReportMetric(value(tbl, "200", col), name+"/coverage@200")
		}
	})
}

// BenchmarkFig7FaultTolerance regenerates Figure 7 (fault tolerance vs
// target answer size). Metrics: tolerated failures at t=30.
func BenchmarkFig7FaultTolerance(b *testing.B) {
	runExperiment(b, "fig7", func(tbl *experiments.Table, b *testing.B) {
		for col, name := range tbl.Columns {
			b.ReportMetric(value(tbl, "30", col), name+"/failures@t30")
		}
	})
}

// BenchmarkFig9Unfairness regenerates Figure 9 (unfairness vs storage,
// t=35). Metrics: unfairness at budgets 100 and 1000.
func BenchmarkFig9Unfairness(b *testing.B) {
	runExperiment(b, "fig9", func(tbl *experiments.Table, b *testing.B) {
		for col, name := range tbl.Columns {
			b.ReportMetric(value(tbl, "100", col), name+"/U@100")
			b.ReportMetric(value(tbl, "1000", col), name+"/U@1000")
		}
	})
}

// BenchmarkFig12Cushion regenerates Figure 12 (Fixed-x failure rate vs
// cushion). Metrics: failure percentage at cushions 0 and 4.
func BenchmarkFig12Cushion(b *testing.B) {
	runExperiment(b, "fig12", func(tbl *experiments.Table, b *testing.B) {
		for col, name := range tbl.Columns {
			b.ReportMetric(value(tbl, "0", col), metricName(name, "fail%@b0"))
			b.ReportMetric(value(tbl, "4", col), metricName(name, "fail%@b4"))
		}
	})
}

// BenchmarkFig13Deterioration regenerates Figure 13 (RandomServer
// unfairness vs updates). Metrics: unfairness at 0 and 4000 updates.
func BenchmarkFig13Deterioration(b *testing.B) {
	runExperiment(b, "fig13", func(tbl *experiments.Table, b *testing.B) {
		b.ReportMetric(value(tbl, "0", 0), "randomServer/U@0")
		b.ReportMetric(value(tbl, "4000", 0), "randomServer/U@4000")
	})
}

// BenchmarkFig14UpdateOverhead regenerates Figure 14 (update overhead,
// Fixed-50 vs Hash-y). Metrics: messages at h=100 and h=300.
func BenchmarkFig14UpdateOverhead(b *testing.B) {
	runExperiment(b, "fig14", func(tbl *experiments.Table, b *testing.B) {
		for _, h := range []string{"100", "300"} {
			b.ReportMetric(value(tbl, h, 0), "fixed50/msgs@h"+h)
			b.ReportMetric(value(tbl, h, 1), "hashY/msgs@h"+h)
		}
	})
}

// BenchmarkTable2Summary regenerates Table 2 (strategy star summary).
func BenchmarkTable2Summary(b *testing.B) {
	runExperiment(b, "table2", nil)
}

// BenchmarkAblationGreedyVsExactFT compares the Appendix A greedy
// fault-tolerance heuristic against the exact brute force on the
// canonical placements (DESIGN.md ablation): it reports how often and
// how far greedy overestimates the true tolerance.
func BenchmarkAblationGreedyVsExactFT(b *testing.B) {
	gap, err := experiments.AblationGreedyVsExact(benchFidelity, 1)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if gap, err = experiments.AblationGreedyVsExact(benchFidelity, uint64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(gap.MeanGap, "greedy-exact/meanGap")
	b.ReportMetric(gap.MaxGap, "greedy-exact/maxGap")
	b.ReportMetric(gap.ExactFraction, "greedy-exact/matchFraction")
}

// BenchmarkAblationCushionLifetime verifies the paper's Sec. 6.2 rule
// of thumb that doubling the mean entry lifetime roughly halves the
// cushion needed for a given failure rate.
func BenchmarkAblationCushionLifetime(b *testing.B) {
	var rows map[int][2]float64
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.AblationCushionLifetime(benchFidelity, uint64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	for life, vals := range rows {
		b.ReportMetric(vals[0], "fail%@b2/life"+strconv.Itoa(life))
		b.ReportMetric(vals[1], "fail%@b4/life"+strconv.Itoa(life))
	}
}

// opsSchemes are the schemes the raw-operation benchmarks cover, each
// at a storage budget of 200 for 100 entries on 10 servers.
var opsSchemes = []wire.Scheme{wire.FullReplication, wire.Fixed, wire.RandomServer, wire.RoundRobin, wire.Hash}

// BenchmarkOpsPlaceLookup measures raw operation throughput of the
// in-process cluster for each strategy — the library-level cost a user
// pays per partial lookup.
func BenchmarkOpsPlaceLookup(b *testing.B) {
	for _, scheme := range opsSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			lookup, err := experiments.NewLookupLoop(scheme, 100, 10, 200)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := lookup(15); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOpsUpdate measures add+delete throughput per strategy.
func BenchmarkOpsUpdate(b *testing.B) {
	for _, scheme := range opsSchemes {
		b.Run(scheme.String(), func(b *testing.B) {
			update, err := experiments.NewUpdateLoop(scheme, 100, 10, 200)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := update(fmt.Sprintf("bench-e%d", i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
