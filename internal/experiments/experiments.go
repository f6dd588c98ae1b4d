// Package experiments reproduces the paper's evaluation: one runner per
// table and figure (Table 1; Figs. 4, 6, 7, 9, 12, 13, 14; Table 2),
// plus the extension experiments (ext-*): the paper's qualitative
// claims quantified, and seeded on/off scenarios for the subsystems
// built on top of it. Beside the runners live what they run on: the
// Sec. 4 metrics, the Sec. 6.1 update-stream simulation, the
// multi-key trace generator, and the Sec. 7.2 overlay. The runners
// are shared by cmd/plsbench (human/markdown output, paper fidelity)
// and the repository's testing.B benchmarks (reduced fidelity). Each
// returns a Table; a paper runner's rows are the same series the paper
// plots. This is the home of efficacy numbers, not speed: the
// performance benchmark is the top-level bench/ directory.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/wire"
)

// Fidelity scales the simulation effort per data point. The paper uses
// 5000 runs of 5000-10000 lookups each; reduced fidelities reproduce
// the same curve shapes with wider noise.
type Fidelity struct {
	// Runs is the number of independent placements (instances)
	// averaged per data point.
	Runs int
	// Lookups is the number of client lookups per run.
	Lookups int
	// Updates is the number of update events per dynamic run.
	Updates int
}

// Preset fidelities.
var (
	// Quick keeps `go test -bench` fast.
	Quick = Fidelity{Runs: 20, Lookups: 200, Updates: 2000}
	// Default balances runtime and precision for interactive use.
	Default = Fidelity{Runs: 200, Lookups: 1000, Updates: 10000}
	// High renders results/results-high.md: tighter intervals than
	// Default at several times its runtime.
	High = Fidelity{Runs: 1000, Lookups: 3000, Updates: 20000}
	// Paper approaches the paper's stated fidelity (minutes of CPU).
	Paper = Fidelity{Runs: 5000, Lookups: 5000, Updates: 10000}
)

// Row is one data point: a label (usually the x-axis value) and one
// value per column; a NaN value renders as an empty cell, for a column
// that does not apply to the row. CIs, when present, holds the 95%
// confidence half-width of each value (the paper reports its own
// precision this way: "for the 95% confidence level, the intervals is
// always smaller than 0.1% of the sampled mean", Sec. 6.1).
type Row struct {
	Label  string
	Values []float64
	CIs    []float64
}

// Table is the result of one experiment, directly comparable to the
// paper's figure or table of the same ID.
type Table struct {
	ID      string // e.g. "fig4"
	Title   string
	XLabel  string
	Columns []string
	Rows    []Row
	Notes   []string
}

// AddRow appends a data point.
func (t *Table) AddRow(label string, values ...float64) {
	t.Rows = append(t.Rows, Row{Label: label, Values: values})
}

// AddRowCI appends a data point from summaries, capturing both means
// and 95% confidence half-widths.
func (t *Table) AddRowCI(label string, summaries ...*stats.Summary) {
	row := Row{Label: label}
	for _, s := range summaries {
		row.Values = append(row.Values, s.Mean())
		row.CIs = append(row.CIs, s.CI95())
	}
	t.Rows = append(t.Rows, row)
}

// MaxRelativeCI returns the largest CI half-width relative to its mean
// across all cells that carry one (0 when none do), for precision
// reporting in experiment notes.
func (t *Table) MaxRelativeCI() float64 {
	maxRel := 0.0
	for _, r := range t.Rows {
		for j, ci := range r.CIs {
			if j >= len(r.Values) || r.Values[j] == 0 {
				continue
			}
			rel := ci / r.Values[j]
			if rel < 0 {
				rel = -rel
			}
			if rel > maxRel {
				maxRel = rel
			}
		}
	}
	return maxRel
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns)+1)
	widths[0] = len(t.XLabel)
	for _, r := range t.Rows {
		if len(r.Label) > widths[0] {
			widths[0] = len(r.Label)
		}
	}
	cells := make([][]string, len(t.Rows))
	for i, r := range t.Rows {
		cells[i] = make([]string, len(r.Values))
		for j, v := range r.Values {
			cells[i][j] = formatValue(v)
		}
	}
	for j, col := range t.Columns {
		widths[j+1] = len(col)
		for i := range cells {
			if j < len(cells[i]) && len(cells[i][j]) > widths[j+1] {
				widths[j+1] = len(cells[i][j])
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], t.XLabel)
	for j, col := range t.Columns {
		fmt.Fprintf(&b, "  %*s", widths[j+1], col)
	}
	b.WriteByte('\n')
	for i, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r.Label)
		for j := range t.Columns {
			cell := ""
			if j < len(cells[i]) {
				cell = cells[i][j]
			}
			fmt.Fprintf(&b, "  %*s", widths[j+1], cell)
		}
		b.WriteByte('\n')
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "| %s |", t.XLabel)
	for _, col := range t.Columns {
		fmt.Fprintf(&b, " %s |", col)
	}
	b.WriteString("\n|")
	for i := 0; i <= len(t.Columns); i++ {
		_ = i
		b.WriteString("---|")
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "| %s |", r.Label)
		for j := range t.Columns {
			cell := ""
			if j < len(r.Values) {
				cell = formatValue(r.Values[j])
			}
			fmt.Fprintf(&b, " %s |", cell)
		}
		b.WriteByte('\n')
	}
	if len(t.Notes) > 0 {
		b.WriteByte('\n')
		for _, note := range t.Notes {
			fmt.Fprintf(&b, "*%s*\n", note)
		}
	}
	return b.String()
}

// CSV renders the table as comma-separated values (one header row),
// convenient for gnuplot/spreadsheet plotting of the reproduced
// figures.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(t.XLabel))
	for _, col := range t.Columns {
		b.WriteByte(',')
		b.WriteString(csvEscape(col))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		b.WriteString(csvEscape(r.Label))
		for j := range t.Columns {
			b.WriteByte(',')
			if j < len(r.Values) && !math.IsNaN(r.Values[j]) {
				b.WriteString(strconv.FormatFloat(r.Values[j], 'g', -1, 64))
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if !strings.ContainsAny(s, ",\"\n") {
		return s
	}
	return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
}

func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return ""
	case v == float64(int64(v)) && v < 1e15 && v > -1e15:
		return fmt.Sprintf("%d", int64(v))
	case v >= 100:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01 || v == 0:
		return fmt.Sprintf("%.4f", v)
	default:
		return fmt.Sprintf("%.2e", v)
	}
}

// instance is one freshly placed cluster + driver, the unit the static
// experiments repeat per run (a dynamicRun is one with a stream).
type instance struct {
	cluster *cluster.Cluster
	driver  *strategy.Driver
	entries []entry.Entry
	key     string
}

// runConfig returns cfg for one run: a Hash-y config without a seed
// draws a fresh hash family from rng, so that run-averaging covers the
// family's randomness, as the paper's simulations do.
func runConfig(rng *stats.RNG, cfg wire.Config) wire.Config {
	if cfg.Scheme == wire.Hash && cfg.Seed == 0 {
		cfg.Seed = rng.Uint64()
	}
	return cfg
}

// newInstance builds a cluster of n servers, places h synthetic entries
// under runConfig(cfg), and returns a driver for lookups. Each call
// uses fresh randomness split from rng.
func newInstance(rng *stats.RNG, cfg wire.Config, h, n int) (*instance, error) {
	return place(rng, runConfig(rng, cfg), n, entry.Synthetic(h))
}

// newCluster builds every experiment's cluster. The goldens' wired arm
// swaps in wired clusters (golden_test.go); nothing else changes it.
// The experiment that builds a cluster closes it once it is done with
// it, on its error paths too (closing), so that a wired arm holds one
// cluster's sockets at a time per experiment.
var newCluster = cluster.New

// closing closes cl and returns err joined with what that returned.
func closing(cl *cluster.Cluster, err error) error {
	return errors.Join(err, cl.Close())
}

// place builds a cluster of n servers and a driver for cfg, each from a
// fresh split of rng, and places entries under cfg. The caller closes
// the instance.
func place(rng *stats.RNG, cfg wire.Config, n int, entries []entry.Entry) (*instance, error) {
	cl := newCluster(n, rng.Split())
	drv, err := strategy.New(cfg, rng.Split())
	if err != nil {
		return nil, closing(cl, err)
	}
	inst := &instance{cluster: cl, driver: drv, entries: entries, key: "k"}
	if err := drv.Place(ctxB(), cl.Caller(), inst.key, entries); err != nil {
		return nil, closing(cl, fmt.Errorf("experiments: place %v: %w", cfg, err))
	}
	return inst, nil
}

// close closes the instance's cluster and returns err joined with what
// that returned: the caller passes the error of its last use, if any.
func (in *instance) close(err error) error { return closing(in.cluster, err) }

// lookup runs one partial lookup against the instance.
func (in *instance) lookup(t int) (strategy.Result, error) {
	return in.driver.PartialLookup(ctxB(), in.cluster.Caller(), in.key, t)
}

// lookupCost measures the instance's lookup cost at target t over
// lookups lookups (Sec. 4.2).
func (in *instance) lookupCost(t, lookups int) (lookupCostResult, error) {
	return measureLookupCost(func() (strategy.Result, error) {
		return in.lookup(t)
	}, t, lookups)
}

// unfairness measures the instance's de-biased unfairness (Eq. 1) at
// target t over lookups lookups, against universe.
func (in *instance) unfairness(universe []entry.Entry, t, lookups int) (float64, error) {
	return measureUnfairnessDebiased(func() (strategy.Result, error) {
		return in.lookup(t)
	}, universe, t, lookups)
}

// ctxB is shorthand for context.Background in experiment bodies.
func ctxB() context.Context { return context.Background() }
