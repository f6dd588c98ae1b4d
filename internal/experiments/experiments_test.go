package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

// tiny keeps the experiment tests fast while preserving gross shapes.
var tiny = Fidelity{Runs: 8, Lookups: 150, Updates: 1000}

func TestTable1StorageMatchesAnalytic(t *testing.T) {
	tbl, err := Table1Storage(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		analytic, measured := row.Values[0], row.Values[1]
		diff := analytic - measured
		if diff < 0 {
			diff = -diff
		}
		// Hash-2's measured storage fluctuates around its expectation;
		// everything else is exact.
		tol := 0.5
		if strings.HasPrefix(row.Label, "Hash") {
			tol = analytic * 0.05
		}
		if diff > tol {
			t.Errorf("%s: measured %v vs analytic %v", row.Label, measured, analytic)
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	tbl, err := Fig4LookupCost(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	byT := map[string][]float64{}
	for _, row := range tbl.Rows {
		byT[row.Label] = row.Values
	}
	// Columns: Round-2, RandomServer-20, Hash-2.
	// Round-2 steps: cost 1 at t<=20, 2 at 25..40, 3 at 45..50.
	for _, tc := range []struct {
		label string
		want  float64
	}{{"10", 1}, {"20", 1}, {"25", 2}, {"40", 2}, {"45", 3}} {
		if got := byT[tc.label][0]; got != tc.want {
			t.Errorf("Round-2 at t=%s: %v, want %v", tc.label, got, tc.want)
		}
	}
	// RandomServer >= Round everywhere; strictly above at t=35.
	for _, row := range tbl.Rows {
		if row.Values[1] < row.Values[0]-1e-9 {
			t.Errorf("t=%s: RandomServer %v below Round %v", row.Label, row.Values[1], row.Values[0])
		}
	}
	// Hash-2 exceeds 1 already at t=20 (some servers hold < 20).
	if byT["20"][2] <= 1 {
		t.Errorf("Hash-2 at t=20 = %v, want > 1", byT["20"][2])
	}
	// Hash-2 can beat Round-2 just past a step boundary (paper: t=25).
	if byT["25"][2] >= 2 {
		t.Errorf("Hash-2 at t=25 = %v, want < 2 (beats Round's step)", byT["25"][2])
	}
}

func TestFig6Shapes(t *testing.T) {
	tbl, err := Fig6Coverage(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	prevRS := 0.0
	for _, row := range tbl.Rows {
		roundHash, fixed, rs, analytic := row.Values[0], row.Values[1], row.Values[2], row.Values[3]
		// Round&Hash dominate everything; Fixed is the floor.
		if fixed > rs+1e-9 || rs > roundHash+1e-9 {
			t.Errorf("budget %s: ordering violated (%v, %v, %v)", row.Label, fixed, rs, roundHash)
		}
		// RandomServer matches its analytic expectation loosely.
		if d := rs - analytic; d > 5 || d < -5 {
			t.Errorf("budget %s: RandomServer %v vs analytic %v", row.Label, rs, analytic)
		}
		// Monotone nondecreasing in budget.
		if rs < prevRS-3 {
			t.Errorf("budget %s: coverage decreased %v -> %v", row.Label, prevRS, rs)
		}
		prevRS = rs
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	if last.Values[0] != 100 {
		t.Errorf("Round&Hash at budget 200 = %v, want complete coverage", last.Values[0])
	}
}

func TestFig7Shapes(t *testing.T) {
	tbl, err := Fig7FaultTolerance(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: RandomServer-20, Hash-2, Round-2.
	first := tbl.Rows[0]
	lastRow := tbl.Rows[len(tbl.Rows)-1]
	// Tolerance decreases as t grows, for every strategy.
	for col := 0; col < 3; col++ {
		if lastRow.Values[col] > first.Values[col] {
			t.Errorf("col %d: tolerance increased with t", col)
		}
	}
	// RandomServer >= Round everywhere (common entries help).
	for _, row := range tbl.Rows {
		if row.Values[0] < row.Values[2]-0.3 {
			t.Errorf("t=%s: RandomServer %v below Round %v", row.Label, row.Values[0], row.Values[2])
		}
	}
	// Round-2 analytic: 9 at t=10, 6 at t=50.
	if first.Values[2] != 9 || lastRow.Values[2] != 6 {
		t.Errorf("Round-2 endpoints = %v, %v, want 9 and 6", first.Values[2], lastRow.Values[2])
	}
}

func TestFig9Shapes(t *testing.T) {
	tbl, err := Fig9Unfairness(tiny, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	// RandomServer decays by a large factor across the sweep.
	if last.Values[0] > first.Values[0]/2 {
		t.Errorf("randomServer did not decay: %v -> %v", first.Values[0], last.Values[0])
	}
	// Hash ends above RandomServer (its inherent placement bias).
	if last.Values[1] < last.Values[0] {
		t.Errorf("hash %v below randomServer %v at max storage", last.Values[1], last.Values[0])
	}
}

func TestFig12Shapes(t *testing.T) {
	tbl, err := Fig12Cushion(Fidelity{Runs: 6, Lookups: 50, Updates: 3000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	// Zero cushion fails >= 5% of the time; cushion 7 is far lower,
	// for both lifetime distributions.
	for col := 0; col < 2; col++ {
		if first.Values[col] < 5 {
			t.Errorf("col %d: b=0 failure %v%%, want >= 5%%", col, first.Values[col])
		}
		if last.Values[col] > first.Values[col]/4 {
			t.Errorf("col %d: cushion barely helped: %v%% -> %v%%", col, first.Values[col], last.Values[col])
		}
	}
	// The heavy-tail zipf curve sits above exp at large cushions.
	if last.Values[1] < last.Values[0] {
		t.Errorf("zipf %v below exp %v at b=7; want heavier tail", last.Values[1], last.Values[0])
	}
}

func TestFig13Shapes(t *testing.T) {
	tbl, err := Fig13Deterioration(Fidelity{Runs: 4, Lookups: 400, Updates: 4000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	// Unfairness rises from its static level and stabilizes above it.
	if last.Values[0] < first.Values[0]*1.2 {
		t.Errorf("randomServer unfairness did not deteriorate: %v -> %v", first.Values[0], last.Values[0])
	}
	// Fixed-x reference sits near its analytic value 2 throughout.
	for _, row := range tbl.Rows {
		if row.Values[1] < 1.7 || row.Values[1] > 2.4 {
			t.Errorf("updates=%s: fixed reference %v, want ~2", row.Label, row.Values[1])
		}
	}
}

func TestFig14Shapes(t *testing.T) {
	tbl, err := Fig14UpdateOverhead(Fidelity{Runs: 3, Lookups: 50, Updates: 2000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	byH := map[string][]float64{}
	for _, row := range tbl.Rows {
		byH[row.Label] = row.Values
	}
	// Fixed-50 cost decreases monotonically in h (~1/h).
	prev := 1e18
	for _, row := range tbl.Rows {
		if row.Values[0] > prev*1.05 {
			t.Errorf("h=%s: fixed cost rose %v -> %v", row.Label, prev, row.Values[0])
		}
		prev = row.Values[0]
	}
	// Hash-y's optimal y steps down at the paper's break points.
	for _, tc := range []struct {
		h string
		y float64
	}{{"100", 4}, {"150", 3}, {"200", 2}, {"300", 2}, {"400", 1}} {
		if got := byH[tc.h][2]; got != tc.y {
			t.Errorf("h=%s: optimal y = %v, want %v", tc.h, got, tc.y)
		}
	}
	// Crossovers (Sec. 6.4): Hash wins at small h; Fixed dips below
	// Hash late in the y=2 window (x·n/h < effective y, around
	// h≈265-399); Hash-1 wins again at h=400 — the paper's third
	// crossover in Fixed's favor lies beyond h=500, outside the sweep.
	if byH["100"][1] >= byH["100"][0] {
		t.Errorf("h=100: hash %v not below fixed %v", byH["100"][1], byH["100"][0])
	}
	if byH["300"][0] >= byH["300"][1] {
		t.Errorf("h=300: fixed %v not below hash %v (y=2 window crossover)", byH["300"][0], byH["300"][1])
	}
	if byH["400"][1] >= byH["400"][0] {
		t.Errorf("h=400: hash-1 %v not below fixed %v", byH["400"][1], byH["400"][0])
	}
}

func TestTable2Stars(t *testing.T) {
	tbl, err := Table2Summary(Fidelity{Runs: 6, Lookups: 200, Updates: 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 strategies", len(tbl.Rows))
	}
	stars := map[string][]float64{}
	for _, row := range tbl.Rows {
		if len(row.Values) != len(tbl.Columns) {
			t.Fatalf("%s has %d values for %d columns", row.Label, len(row.Values), len(tbl.Columns))
		}
		for _, v := range row.Values {
			if v < 1 || v > 4 {
				t.Fatalf("%s has star value %v outside 1..4", row.Label, v)
			}
		}
		stars[row.Label] = row.Values
	}
	// Spot-check the paper's strongest claims: Round-y has zero
	// unfairness (best fairness columns), Fixed-x has the best
	// small-ratio update overhead, Round-y has complete coverage.
	if stars["Round-2"][4] != 4 {
		t.Errorf("Round-2 static fairness stars = %v, want 4", stars["Round-2"][4])
	}
	if stars["Fixed-20"][7] != 4 {
		t.Errorf("Fixed-20 small-ratio update stars = %v, want 4", stars["Fixed-20"][7])
	}
	if stars["Round-2"][2] != stars["Hash-2"][2] {
		t.Errorf("Round and Hash coverage stars differ: %v vs %v (both complete)",
			stars["Round-2"][2], stars["Hash-2"][2])
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:      "fig0",
		Title:   "demo",
		XLabel:  "x",
		Columns: []string{"a", "b"},
		Notes:   []string{"a note"},
	}
	tbl.AddRow("1", 1.5, 2)
	tbl.AddRow("2", 0.001, 1e6)
	tbl.AddRow("3", math.NaN(), 7) // a column that does not apply to the row
	text := tbl.String()
	for _, want := range []string{"fig0", "demo", "a note", "1.5000", "3                  7\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("text output missing %q:\n%s", want, text)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### fig0", "| x | a | b |", "|---|---|---|", "| 3 |  | 7 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown output missing %q:\n%s", want, md)
		}
	}
}

func TestRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 9 {
		t.Fatalf("registry has %d experiments, want 9", len(exps))
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.Run == nil || e.ID == "" || e.Title == "" {
			t.Fatalf("experiment %+v incomplete", e)
		}
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
	}
	if _, err := Find("fig4"); err != nil {
		t.Fatal(err)
	}
	if _, err := Find("fig99"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestExperimentsDeterministicAcrossSeeds(t *testing.T) {
	a, err := Table1Storage(tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Table1Storage(tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for j := range a.Rows[i].Values {
			if a.Rows[i].Values[j] != b.Rows[i].Values[j] {
				t.Fatalf("same-seed experiment differs at row %d col %d", i, j)
			}
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		ID:      "x",
		Title:   "demo",
		XLabel:  "t, value",
		Columns: []string{"a", `quo"te`},
	}
	tbl.AddRow("1", 1.5, 2)
	tbl.AddRow("2", math.NaN(), 3)
	got := tbl.CSV()
	want := "\"t, value\",a,\"quo\"\"te\"\n1,1.5,2\n2,,3\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

func TestAddRowCIAndMaxRelativeCI(t *testing.T) {
	tbl := &Table{ID: "ci", Title: "demo", XLabel: "x", Columns: []string{"a"}}
	s := &stats.Summary{}
	for _, v := range []float64{9, 10, 11, 10} {
		s.Observe(v)
	}
	tbl.AddRowCI("r", s)
	row := tbl.Rows[0]
	if row.Values[0] != 10 {
		t.Fatalf("mean = %v", row.Values[0])
	}
	if len(row.CIs) != 1 || row.CIs[0] <= 0 {
		t.Fatalf("CIs = %v", row.CIs)
	}
	rel := tbl.MaxRelativeCI()
	if rel <= 0 || rel > 0.2 {
		t.Fatalf("MaxRelativeCI = %v", rel)
	}
	// Empty table: zero.
	if (&Table{}).MaxRelativeCI() != 0 {
		t.Fatal("empty table CI nonzero")
	}
}
