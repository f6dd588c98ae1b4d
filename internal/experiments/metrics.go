package experiments

// The paper's five evaluation metrics (Sec. 4) over placements and
// lookup streams: storage cost, client lookup cost, maximum coverage
// (entry.Union), worst-case fault tolerance (the greedy heuristic of
// Appendix A plus an exact brute force for validation), and unfairness
// (the coefficient of variation of per-entry return probabilities,
// Eq. 1).

import (
	"math"
	"math/bits"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// storageCost returns the combined number of entries stored across the
// given per-server sets (Sec. 4.1; entries are assumed equal-sized).
func storageCost(sets []*entry.Set) int {
	total := 0
	for _, s := range sets {
		total += s.Len()
	}
	return total
}

// frequencies returns, for each distinct entry, the number of servers
// storing it.
func frequencies(sets []*entry.Set) map[entry.Entry]int {
	f := make(map[entry.Entry]int)
	for _, s := range sets {
		for i := 0; i < s.Len(); i++ {
			f[s.At(i)]++
		}
	}
	return f
}

// faultToleranceGreedy estimates the worst-case fault tolerance of a
// placement for target answer size t: the maximum number of server
// failures, chosen adversarially, after which a partial lookup of size
// t still succeeds. Finding the true minimum failure set is equivalent
// to SET-COVER (NP-complete), so this uses the paper's greedy heuristic
// (Appendix A): repeatedly fail the server with the highest importance
// X_S = Σ_{e∈V_S} 1/f_e, where f_e counts the operational servers
// holding e.
//
// It returns 0 when the placement cannot satisfy t even with every
// server operational.
func faultToleranceGreedy(sets []*entry.Set, t int) int {
	n := len(sets)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	freq := frequencies(sets)
	coverage := len(freq) // every f_e >= 1 initially
	if coverage < t {
		return 0
	}
	tolerated := 0
	for remaining := n; remaining > 0; remaining-- {
		// Pick the most important operational server.
		best, bestScore := -1, math.Inf(-1)
		for i := 0; i < n; i++ {
			if !alive[i] {
				continue
			}
			score := 0.0
			for j := 0; j < sets[i].Len(); j++ {
				score += 1 / float64(freq[sets[i].At(j)])
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		if best == -1 {
			break
		}
		alive[best] = false
		for j := 0; j < sets[best].Len(); j++ {
			e := sets[best].At(j)
			freq[e]--
			if freq[e] == 0 {
				delete(freq, e)
				coverage--
			}
		}
		if coverage < t {
			return tolerated
		}
		tolerated++
	}
	return tolerated
}

// faultToleranceExact computes the exact worst-case fault tolerance by
// enumerating failure subsets. It is exponential in the number of
// servers (capped at 20) and exists to validate the greedy heuristic on
// small instances. It returns 0 when the placement cannot satisfy t
// with all servers up.
func faultToleranceExact(sets []*entry.Set, t int) int {
	n := len(sets)
	if n > 20 {
		panic("experiments: faultToleranceExact supports at most 20 servers")
	}
	full := coverageOfMask(sets, (1<<n)-1)
	if full < t {
		return 0
	}
	// Find the smallest k such that some k-subset of failures drops the
	// remaining coverage below t; the tolerance is k-1. If no subset of
	// n-1 failures breaks the service, the tolerance is n-1 (with all n
	// failed, coverage is 0 < t).
	for k := 1; k < n; k++ {
		for mask := 0; mask < 1<<n; mask++ {
			if bits.OnesCount(uint(mask)) != k {
				continue
			}
			aliveMask := ((1 << n) - 1) &^ mask
			if coverageOfMask(sets, aliveMask) < t {
				return k - 1
			}
		}
	}
	return n - 1
}

func coverageOfMask(sets []*entry.Set, aliveMask int) int {
	alive := make([]*entry.Set, 0, len(sets))
	for i, s := range sets {
		if aliveMask&(1<<i) != 0 {
			alive = append(alive, s)
		}
	}
	return entry.Union(alive...)
}

// lookupFunc performs one partial lookup and reports its result; the
// measurement helpers below drive it repeatedly.
type lookupFunc func() (strategy.Result, error)

// lookupCostResult aggregates a lookup-cost measurement (Sec. 4.2).
type lookupCostResult struct {
	// MeanContacted is the average number of servers contacted per
	// lookup: the paper's client lookup cost.
	MeanContacted float64
	// CI95 is the 95% confidence half-width of MeanContacted.
	CI95 float64
	// SatisfiedFraction is the fraction of lookups that retrieved at
	// least their target t.
	SatisfiedFraction float64
}

// measureLookupCost runs m lookups with target t and averages the
// number of servers contacted.
func measureLookupCost(lookup lookupFunc, t, m int) (lookupCostResult, error) {
	var contacted stats.Summary
	satisfied := 0
	for i := 0; i < m; i++ {
		res, err := lookup()
		if err != nil {
			return lookupCostResult{}, err
		}
		contacted.Observe(float64(res.Contacted))
		if res.Satisfied(t) {
			satisfied++
		}
	}
	return lookupCostResult{
		MeanContacted:     contacted.Mean(),
		CI95:              contacted.CI95(),
		SatisfiedFraction: float64(satisfied) / float64(m),
	}, nil
}

// measureUnfairness estimates the unfairness U_I of one placement
// instance (Eq. 1, Sec. 4.5) from m random lookups with target t:
// the coefficient of variation of each entry's empirical return
// probability around the ideal t/h, where h = len(universe) is the
// number of entries in the system (entries never returned contribute
// probability zero, as the paper's coverage argument requires).
func measureUnfairness(lookup lookupFunc, universe []entry.Entry, t, m int) (float64, error) {
	counts, err := collectReturnCounts(lookup, t, m, len(universe))
	if err != nil {
		return 0, err
	}
	return unfairnessFromCounts(counts, universe, t, m), nil
}

// collectReturnCounts tallies how often each entry is among the first t
// entries a lookup returns. Merged multi-probe answers can exceed t
// ("until the total number of distinct entries returned is more than
// t"); Eq. 1's ideal probability t/h assumes the client consumes
// exactly t of them, so the tally is capped at t per lookup.
func collectReturnCounts(lookup lookupFunc, t, m, sizeHint int) (map[entry.Entry]int, error) {
	counts := make(map[entry.Entry]int, sizeHint)
	for i := 0; i < m; i++ {
		res, err := lookup()
		if err != nil {
			return nil, err
		}
		returned := res.Entries
		if len(returned) > t {
			returned = returned[:t]
		}
		for _, v := range returned {
			counts[v]++
		}
	}
	return counts, nil
}

// unfairnessFromCounts computes Eq. 1 from pre-aggregated return counts.
func unfairnessFromCounts(counts map[entry.Entry]int, universe []entry.Entry, t, m int) float64 {
	h := len(universe)
	if h == 0 || t <= 0 || m <= 0 {
		return 0
	}
	probs := make([]float64, h)
	for i, v := range universe {
		probs[i] = float64(counts[v]) / float64(m)
	}
	ideal := float64(t) / float64(h)
	return stats.CoV(probs, ideal)
}

// measureUnfairnessDebiased is measureUnfairness with the finite-sample
// bias removed. The plug-in estimator of Eq. 1 is inflated by sampling
// noise: E[(p̂_j − ideal)²] = (p_j − ideal)² + Var(p̂_j), which puts a
// floor of √((1−p)/(m·p)) under any measured unfairness — visible in
// the paper's own Figure 9, whose high-storage plateau ≈ 0.013 equals
// the noise floor of its 10000-lookup runs. Subtracting the estimated
// binomial variance p̂(1−p̂)/(m−1) per entry removes the floor, so
// reduced-fidelity runs report the same levels as paper-fidelity ones.
func measureUnfairnessDebiased(lookup lookupFunc, universe []entry.Entry, t, m int) (float64, error) {
	counts, err := collectReturnCounts(lookup, t, m, len(universe))
	if err != nil {
		return 0, err
	}
	return unfairnessFromCountsDebiased(counts, universe, t, m), nil
}

// unfairnessFromCountsDebiased computes the de-biased Eq. 1 estimate
// from pre-aggregated return counts. See measureUnfairnessDebiased.
func unfairnessFromCountsDebiased(counts map[entry.Entry]int, universe []entry.Entry, t, m int) float64 {
	h := len(universe)
	if h == 0 || t <= 0 || m <= 1 {
		return 0
	}
	ideal := float64(t) / float64(h)
	sum := 0.0
	for _, v := range universe {
		p := float64(counts[v]) / float64(m)
		d := p - ideal
		sum += d*d - p*(1-p)/float64(m-1)
	}
	if sum < 0 {
		sum = 0
	}
	return math.Sqrt(sum/float64(h)) / ideal
}

// exactUnfairness computes U_I analytically for a placement where a
// client contacts exactly one uniformly random server and receives t
// uniform entries from its local set (the single-probe regime of Full
// Replication and Fixed-x, and of any placement whose every server
// holds at least t entries). Entry j's return probability is then
// (1/n)·Σ_S min(t,|V_S|)/|V_S| over servers S storing j.
func exactUnfairness(sets []*entry.Set, universe []entry.Entry, t int) float64 {
	h := len(universe)
	n := len(sets)
	if h == 0 || t <= 0 || n == 0 {
		return 0
	}
	probs := make(map[entry.Entry]float64, h)
	for _, s := range sets {
		if s.Len() == 0 {
			continue
		}
		pPerEntry := math.Min(float64(t), float64(s.Len())) / float64(s.Len())
		for j := 0; j < s.Len(); j++ {
			probs[s.At(j)] += pPerEntry / float64(n)
		}
	}
	vals := make([]float64, h)
	for i, v := range universe {
		vals[i] = probs[v]
	}
	return stats.CoV(vals, float64(t)/float64(h))
}
