package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// makeSets builds per-server sets from entry-name lists.
func makeSets(servers ...[]string) []*entry.Set {
	out := make([]*entry.Set, len(servers))
	for i, names := range servers {
		out[i] = entry.NewSet(len(names))
		for _, name := range names {
			out[i].Add(entry.Entry(name))
		}
	}
	return out
}

func TestStorageCostAndCoverage(t *testing.T) {
	sets := makeSets([]string{"a", "b"}, []string{"b", "c"}, nil)
	if got := storageCost(sets); got != 4 {
		t.Fatalf("storageCost = %d, want 4", got)
	}
	if got := entry.Union(sets...); got != 3 {
		t.Fatalf("entry.Union = %d, want 3", got)
	}
}

// TestCoverageFig5 uses the paper's Figure 5 example: both placements
// of five entries on three servers satisfy t=2, but placement 1 covers
// two entries while placement 2 covers five.
func TestCoverageFig5(t *testing.T) {
	placement1 := makeSets(
		[]string{"v1", "v2"}, []string{"v1", "v2"}, []string{"v1", "v2"},
	)
	placement2 := makeSets(
		[]string{"v1", "v2"}, []string{"v2", "v3"}, []string{"v4", "v5"},
	)
	if got := entry.Union(placement1...); got != 2 {
		t.Fatalf("placement 1 coverage = %d, want 2", got)
	}
	if got := entry.Union(placement2...); got != 5 {
		t.Fatalf("placement 2 coverage = %d, want 5", got)
	}
}

func TestFaultToleranceFullReplication(t *testing.T) {
	// Full replication tolerates n-1 failures for any satisfiable t.
	sets := makeSets(
		[]string{"a", "b", "c"}, []string{"a", "b", "c"},
		[]string{"a", "b", "c"}, []string{"a", "b", "c"},
	)
	for _, tol := range []struct{ t, want int }{{1, 3}, {3, 3}, {4, 0}} {
		if got := faultToleranceGreedy(sets, tol.t); got != tol.want {
			t.Errorf("greedy t=%d: %d, want %d", tol.t, got, tol.want)
		}
		if got := faultToleranceExact(sets, tol.t); got != tol.want {
			t.Errorf("exact t=%d: %d, want %d", tol.t, got, tol.want)
		}
	}
}

func TestFaultToleranceSingleCopies(t *testing.T) {
	// Round-1 style: each entry on exactly one server, 2 entries per
	// server, 3 servers, 6 entries. For t=3, losing any two servers
	// leaves 2 < 3: tolerance 1. For t=2 tolerance 2 (one server left
	// still has 2 entries).
	sets := makeSets(
		[]string{"a", "b"}, []string{"c", "d"}, []string{"e", "f"},
	)
	for _, tol := range []struct{ t, want int }{{2, 2}, {3, 1}, {5, 0}} {
		if got := faultToleranceExact(sets, tol.t); got != tol.want {
			t.Errorf("exact t=%d: %d, want %d", tol.t, got, tol.want)
		}
		if got := faultToleranceGreedy(sets, tol.t); got != tol.want {
			t.Errorf("greedy t=%d: %d, want %d", tol.t, got, tol.want)
		}
	}
}

func TestFaultToleranceUnsatisfiable(t *testing.T) {
	sets := makeSets([]string{"a"}, []string{"a"})
	if got := faultToleranceGreedy(sets, 2); got != 0 {
		t.Fatalf("unsatisfiable greedy = %d, want 0", got)
	}
	if got := faultToleranceExact(sets, 2); got != 0 {
		t.Fatalf("unsatisfiable exact = %d, want 0", got)
	}
}

// TestGreedyNeverExceedsExact validates the Appendix A heuristic
// against the exact minimum on random small placements: greedy is a
// lower bound on the adversary's power, so greedy >= exact is
// impossible... greedy kills the heuristically best server, the true
// adversary at least as well: exact <= greedy.
func TestGreedyVersusExactRandomPlacements(t *testing.T) {
	rng := stats.NewRNG(31)
	for trial := 0; trial < 60; trial++ {
		n := 3 + rng.IntN(4) // 3..6 servers
		h := 4 + rng.IntN(8) // 4..11 entries
		per := 1 + rng.IntN(4)
		servers := make([][]string, n)
		for s := 0; s < n; s++ {
			for c := 0; c < per; c++ {
				servers[s] = append(servers[s], fmt.Sprintf("e%d", rng.IntN(h)))
			}
		}
		sets := makeSets(servers...)
		target := 1 + rng.IntN(h)
		exact := faultToleranceExact(sets, target)
		greedy := faultToleranceGreedy(sets, target)
		// The exact adversary is optimal: it needs at most as many
		// failures as the greedy one finds, so exact tolerance <=
		// greedy tolerance.
		if exact > greedy {
			t.Fatalf("trial %d: exact %d > greedy %d (sets %v, t=%d)", trial, exact, greedy, servers, target)
		}
		// And greedy cannot exceed n-1.
		if greedy > n-1 {
			t.Fatalf("greedy %d > n-1", greedy)
		}
	}
}

func TestUnfairnessFromCountsFixedExample(t *testing.T) {
	// Fixed-1 managing 2 entries, t=1 (Sec. 4.5 example): the first
	// entry always returned, unfairness exactly 1.
	universe := []entry.Entry{"v1", "v2"}
	counts := map[entry.Entry]int{"v1": 1000}
	if got := unfairnessFromCounts(counts, universe, 1, 1000); math.Abs(got-1) > 1e-9 {
		t.Fatalf("unfairness = %v, want 1", got)
	}
	// Perfectly fair: ~0.
	counts = map[entry.Entry]int{"v1": 500, "v2": 500}
	if got := unfairnessFromCounts(counts, universe, 1, 1000); got != 0 {
		t.Fatalf("fair unfairness = %v, want 0", got)
	}
	// Degenerate inputs.
	if unfairnessFromCounts(nil, nil, 1, 10) != 0 {
		t.Fatal("empty universe not 0")
	}
	if unfairnessFromCounts(counts, universe, 0, 10) != 0 {
		t.Fatal("t=0 not 0")
	}
}

func TestExactUnfairness(t *testing.T) {
	universe := entry.Synthetic(100)
	// Fixed-20: every server stores v1..v20; single probe with t=1
	// gives unfairness exactly 2 (Sec. 6.3).
	first20 := make([]string, 20)
	for i := range first20 {
		first20[i] = string(universe[i])
	}
	sets := makeSets(first20, first20, first20)
	if got := exactUnfairness(sets, universe, 1); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Fixed-20 exact unfairness = %v, want 2", got)
	}
	// Full replication is perfectly fair for any t.
	all := make([]string, 100)
	for i := range all {
		all[i] = string(universe[i])
	}
	sets = makeSets(all, all)
	for _, target := range []int{1, 35, 100} {
		if got := exactUnfairness(sets, universe, target); math.Abs(got) > 1e-9 {
			t.Fatalf("full replication t=%d unfairness = %v, want 0", target, got)
		}
	}
}

func TestMeasureLookupCostAndUnfairness(t *testing.T) {
	// A synthetic lookup function over a fixed answer distribution.
	rng := stats.NewRNG(5)
	universe := entry.Synthetic(10)
	lookup := func() (strategy.Result, error) {
		// Always two servers contacted; always returns 3 uniform entries.
		sample := make([]entry.Entry, 0, 3)
		seen := map[int]bool{}
		for len(sample) < 3 {
			i := rng.IntN(10)
			if !seen[i] {
				seen[i] = true
				sample = append(sample, universe[i])
			}
		}
		return strategy.Result{Entries: sample, Contacted: 2}, nil
	}
	cost, err := measureLookupCost(lookup, 3, 500)
	if err != nil {
		t.Fatal(err)
	}
	if cost.MeanContacted != 2 {
		t.Fatalf("MeanContacted = %v, want 2", cost.MeanContacted)
	}
	if cost.SatisfiedFraction != 1 {
		t.Fatalf("SatisfiedFraction = %v, want 1", cost.SatisfiedFraction)
	}
	// A uniform strategy's de-biased unfairness should be near zero,
	// far below the plug-in estimator's noise floor.
	plain, err := measureUnfairness(lookup, universe, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	debiased, err := measureUnfairnessDebiased(lookup, universe, 3, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if debiased > plain {
		t.Fatalf("debiased %v > plain %v", debiased, plain)
	}
	if debiased > 0.1 {
		t.Fatalf("debiased unfairness of fair strategy = %v, want ~0", debiased)
	}
}

func TestMeasureLookupCostPropagatesError(t *testing.T) {
	fail := func() (strategy.Result, error) { return strategy.Result{}, fmt.Errorf("boom") }
	if _, err := measureLookupCost(fail, 1, 3); err == nil {
		t.Fatal("error not propagated")
	}
	if _, err := measureUnfairness(fail, entry.Synthetic(2), 1, 3); err == nil {
		t.Fatal("error not propagated")
	}
	if _, err := measureUnfairnessDebiased(fail, entry.Synthetic(2), 1, 3); err == nil {
		t.Fatal("error not propagated")
	}
}

func TestFaultToleranceExactPanicsOnLargeN(t *testing.T) {
	sets := make([]*entry.Set, 21)
	for i := range sets {
		sets[i] = entry.NewSet(0)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("exact with n=21 did not panic")
		}
	}()
	faultToleranceExact(sets, 1)
}

// TestFig8InstanceEnumeration reproduces the paper's Fig. 8 example:
// RandomServer-1 managing 2 entries on 2 servers has four equally
// likely instances; instances 1 and 4 (both servers choose the same
// entry) have unfairness 1, instances 2 and 3 are perfectly fair, so
// the strategy's average unfairness at t=1 is 1/2.
func TestFig8InstanceEnumeration(t *testing.T) {
	universe := []entry.Entry{"v1", "v2"}
	instances := [][][]string{
		{{"v1"}, {"v1"}}, // instance 1
		{{"v1"}, {"v2"}}, // instance 2
		{{"v2"}, {"v1"}}, // instance 3
		{{"v2"}, {"v2"}}, // instance 4
	}
	wantU := []float64{1, 0, 0, 1}
	sum := 0.0
	for i, inst := range instances {
		got := exactUnfairness(makeSets(inst...), universe, 1)
		if math.Abs(got-wantU[i]) > 1e-12 {
			t.Fatalf("instance %d unfairness = %v, want %v", i+1, got, wantU[i])
		}
		sum += got
	}
	if avg := sum / 4; math.Abs(avg-0.5) > 1e-12 {
		t.Fatalf("strategy unfairness = %v, want 1/2", avg)
	}
}

// TestFig8ViaSimulation checks that real RandomServer-1 placements
// average to the same 1/2 over many instances.
func TestFig8ViaSimulation(t *testing.T) {
	// Enumerate by the placement rule directly: each server draws a
	// uniform 1-subset independently.
	rng := stats.NewRNG(88)
	universe := []entry.Entry{"v1", "v2"}
	var sum stats.Summary
	for trial := 0; trial < 4000; trial++ {
		pick := func() []string {
			if rng.Bool(0.5) {
				return []string{"v1"}
			}
			return []string{"v2"}
		}
		sum.Observe(exactUnfairness(makeSets(pick(), pick()), universe, 1))
	}
	if got := sum.Mean(); got < 0.45 || got > 0.55 {
		t.Fatalf("simulated RandomServer-1 unfairness = %v, want ~0.5", got)
	}
}
