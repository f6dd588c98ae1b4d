package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestClaim(t *testing.T) {
	for _, tc := range []struct {
		wins, pairs int
		gain, iqr   float64
		want        string
	}{
		{5, 5, 10, 1, "n/a"},   // every pair won, but too few pairs
		{9, 9, 10, 1, "n/a"},   // still too few
		{9, 10, 10, 1, "yes"},  // 9/10 is enough
		{10, 10, 10, 1, "yes"}, // every pair
		{8, 10, 10, 1, "no"},   // too few wins
		{10, 10, 1, 1, "no"},   // medians apart by no more than the IQR
		{10, 10, -5, 1, "no"},  // worse
		{18, 20, 10, 1, "yes"}, // nine tenths of more than ten
		{17, 20, 10, 1, "no"},
	} {
		if got := claim(tc.wins, tc.pairs, tc.gain, tc.iqr); got != tc.want {
			t.Errorf("claim(%d/%d, gain %v, iqr %v) = %q, want %q", tc.wins, tc.pairs, tc.gain, tc.iqr, got, tc.want)
		}
	}
}

// TestWriteSummary: the rows -out writes are the printed summary — both
// medians and quartiles, the parent's IQR, wins and the claim, signed
// by each metric's better direction — and the file reads back as
// written, run identity included.
func TestWriteSummary(t *testing.T) {
	var sp spec
	if err := json.Unmarshal([]byte(`{"run_seconds": 10,
		"workloads": [{"name": "w"}, {"name": "skipped"}],
		"end_to_end": [{"name": "cpu", "better": "lower"}, {"name": "ops", "better": "higher"}]}`), &sp); err != nil {
		t.Fatal(err)
	}
	parent := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	lower := []float64{2, 3, 4, 5, 6, 7, 8, 9, 10, 20} // below the parent in pairs 0–8
	values := map[string]map[string][2][]float64{"w": {
		"cpu": {parent, lower},
		"ops": {parent, lower},
	}}
	rows := summarize(sp, values, len(parent))
	want := []row{
		{Workload: "w", Metric: "cpu", Better: "lower",
			ParentQ1: 11.75, ParentMedian: 14.5, ParentQ3: 17.25,
			ChangeQ1: 3.75, ChangeMedian: 6.5, ChangeQ3: 9.25,
			ParentIQR: 5.5, Wins: 9, Claim: "yes"},
		{Workload: "w", Metric: "ops", Better: "higher",
			ParentQ1: 11.75, ParentMedian: 14.5, ParentQ3: 17.25,
			ChangeQ1: 3.75, ChangeMedian: 6.5, ChangeQ3: 9.25,
			ParentIQR: 5.5, Wins: 1, Claim: "no"},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("summarize:\n got %+v\nwant %+v", rows, want)
	}

	s := summary{Parent: "p", Change: "c+dirty", Seed: 3, Pairs: len(parent), RunSeconds: 10, NumCPU: 2,
		GoVersion: "go1.24.0", GOMAXPROCS: 2, Rows: rows}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := writeSummary(path, s); err != nil {
		t.Fatalf("writeSummary: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("written summary does not parse: %v", err)
	}
	if !reflect.DeepEqual(back, s) {
		t.Fatalf("read back %+v, wrote %+v", back, s)
	}
	var raw map[string]any
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"parent", "change", "seed", "pairs", "num_cpu", "go_version", "gomaxprocs", "metrics"} {
		if _, ok := raw[key]; !ok {
			t.Errorf("summary file has no %q", key)
		}
	}
}
