package experiments

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/wire"
)

// Table2Summary reproduces Table 2: the informal star-rating summary of
// the four partial-lookup strategies (full replication excluded, as in
// the paper). The star values in the source text are illegible (OCR
// damage), so we derive stars the way the paper describes them — from
// the strategies' relative standing on each measured metric: 4 stars
// for the best strategy in a column down to 1 for the worst, ties
// sharing the better rating. The raw measurements behind every column
// are attached as notes.
func Table2Summary(fid Fidelity, seed uint64) (*Table, error) {
	rng := stats.NewRNG(seed)
	configs := []wire.Config{
		{Scheme: wire.Fixed, X: 20},
		{Scheme: wire.RandomServer, X: 20},
		{Scheme: wire.RoundRobin, Y: 2},
		{Scheme: wire.Hash, Y: 2},
	}
	names := make([]string, len(configs))
	for i, cfg := range configs {
		names[i] = cfg.String()
	}
	columns := []string{
		"Storage(few h)", "Storage(many h)", "Coverage", "FaultTol",
		"Fair(static)", "Fair(updates)", "LookupCost", "Update(small t/h)", "Update(large t/h)",
	}
	// lowerBetter[j] says whether a smaller raw value earns more stars.
	lowerBetter := []bool{true, true, false, false, true, true, true, true, true}
	raw := make([][]float64, len(configs))
	for i := range raw {
		raw[i] = make([]float64, len(columns))
	}

	// Storage at few (h=50) and many (h=500) entries, fixed parameters.
	for hi, h := range []int{50, 500} {
		for i, cfg := range configs {
			var s stats.Summary
			for run := 0; run < fid.Runs; run++ {
				inst, err := newInstance(rng, cfg, h, canonicalN)
				if err != nil {
					return nil, err
				}
				s.Observe(float64(inst.cluster.TotalStorage(inst.key)))
			}
			raw[i][hi] = s.Mean()
		}
	}

	// Coverage, fault tolerance (t=20), lookup cost (t=20), static
	// fairness (t=1) on the canonical h=100 placement.
	for i, cfg := range configs {
		var cov, ft, cost, fair stats.Summary
		for run := 0; run < fid.Runs; run++ {
			inst, err := newInstance(rng, cfg, canonicalH, canonicalN)
			if err != nil {
				return nil, err
			}
			snap := inst.cluster.Snapshot(inst.key)
			cov.Observe(float64(entry.Union(snap...)))
			ft.Observe(float64(faultToleranceGreedy(snap, 20)))
			lc, err := inst.lookupCost(20, fid.Lookups)
			if err != nil {
				return nil, err
			}
			cost.Observe(lc.MeanContacted)
			u, err := inst.unfairness(inst.entries, 1, fid.Lookups)
			if err != nil {
				return nil, err
			}
			fair.Observe(u)
		}
		raw[i][2] = cov.Mean()
		raw[i][3] = ft.Mean()
		raw[i][4] = fair.Mean()
		raw[i][6] = cost.Mean()
	}

	// Fairness after sustained updates (t=1, 2000 updates).
	for i, cfg := range configs {
		var fair stats.Summary
		for run := 0; run < max(1, fid.Runs/4); run++ {
			dr, err := newChurnRun(rng, cfg, "exp", canonicalH, min(fid.Updates, 2000))
			if err != nil {
				return nil, err
			}
			if _, err := dr.replay(); err != nil {
				return nil, err
			}
			// Sorted: the universe's order feeds a float sum, and the
			// golden pins this table's values.
			universe := dr.live.Members()
			slices.Sort(universe)
			u, err := dr.unfairness(universe, 1, fid.Lookups)
			if err != nil {
				return nil, err
			}
			fair.Observe(u)
		}
		raw[i][5] = fair.Mean()
	}

	// Update overhead at small and large t/h ratios (t=40; h=400 and
	// h=100), messages per update.
	for hi, h := range []int{400, 100} {
		for i, cfg := range configs {
			var msgs stats.Summary
			for run := 0; run < max(1, fid.Runs/4); run++ {
				dr, err := newChurnRun(rng, cfg, "exp", h, min(fid.Updates, 2000))
				if err != nil {
					return nil, err
				}
				m, err := dr.replay()
				if err != nil {
					return nil, err
				}
				msgs.Observe(float64(m) / float64(len(dr.stream.Events)))
			}
			raw[i][7+hi] = msgs.Mean()
		}
	}

	t := &Table{
		ID:      "table2",
		Title:   "Strategy summary (stars: 4 = most suitable, 1 = least; derived from measured metrics)",
		XLabel:  "Strategy",
		Columns: columns,
	}
	stars := rankToStars(raw, lowerBetter)
	for i, name := range names {
		t.AddRow(name, stars[i]...)
	}
	for j, col := range columns {
		note := fmt.Sprintf("%s raw:", col)
		for i, name := range names {
			note += fmt.Sprintf(" %s=%s", name, formatValue(raw[i][j]))
		}
		t.Notes = append(t.Notes, note)
	}
	return t, nil
}

// rankToStars converts raw column values to 1-4 stars by rank; values
// within 5% of each other share a rating.
func rankToStars(raw [][]float64, lowerBetter []bool) [][]float64 {
	n := len(raw)
	stars := make([][]float64, n)
	for i := range stars {
		stars[i] = make([]float64, len(lowerBetter))
	}
	for j := range lowerBetter {
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			if lowerBetter[j] {
				return raw[order[a]][j] < raw[order[b]][j]
			}
			return raw[order[a]][j] > raw[order[b]][j]
		})
		star := 4.0
		for rank, i := range order {
			if rank > 0 {
				prev := raw[order[rank-1]][j]
				cur := raw[i][j]
				if !withinTolerance(prev, cur, 0.05) {
					star = 4 - float64(rank)
					if star < 1 {
						star = 1
					}
				}
			}
			stars[i][j] = star
		}
	}
	return stars
}

func withinTolerance(a, b, tol float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if scale < 0 {
		scale = -scale
	}
	if b > scale {
		scale = b
	}
	if scale == 0 {
		return true
	}
	return diff/scale <= tol
}
