package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // sorted: 10 20 30 40
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40}, {0.25, 17.5}, {0.99, 39.7},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one = %v", got)
	}
}

func TestWindowStat(t *testing.T) {
	// One burst window (1000) among steady ones must not move the median
	// and barely the IQR: sorted 98 99 100 101 102 1000.
	ws := newWindowStat([]float64{100, 1000, 99, 101, 98, 102})
	if !near(ws.median, 100.5) {
		t.Errorf("median = %v, want 100.5", ws.median)
	}
	// q1 at pos 1.25 = 99.25, q3 at pos 3.75 = 101.75
	if want := 2.5 / 100.5; !near(ws.iqrFrac, want) {
		t.Errorf("iqrFrac = %v, want %v", ws.iqrFrac, want)
	}
	if z := newWindowStat(nil); z.median != 0 || z.iqrFrac != 0 {
		t.Errorf("empty windowStat = %+v", z)
	}
}

// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25];
// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if !near(q1, 2.75) || !near(q2, 5.5) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v %v %v", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 3, 4})
	if !near(q1, 1.25) || !near(q2, 2.5) || !near(q3, 3.75) {
		t.Errorf("quartiles(1..4) = %v %v %v", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4}); !near(got, 1.0) {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSummarizeWindows(t *testing.T) {
	ms := int64(1e6)
	mk := func(endMs int64, latUs int64, update bool) sample {
		return sample{end: endMs * ms, lat: latUs * 1000, update: update}
	}
	// Five windows of 250 ms with 50 ms pauses between them. Ops per
	// window 4, 1, 3, 2, 1, all at machine speed 1 except window 3,
	// which ran on a machine half as fast as the reference: its 2 ops
	// scale to 4 per 250 ms. The calm windows are the fastest quarter by
	// scaled throughput, rounded up: windows 0 and 3 (window 3 wins the
	// tie with window 2 only if it is scaled; 16 > 12).
	win := func(startMs, cpuStartMs, cpuEndMs int64, speed float64) window {
		return window{start: startMs * ms, end: (startMs + 250) * ms, cpuStart: cpuStartMs * ms, cpuEnd: cpuEndMs * ms, speed: speed}
	}
	p := &phase{
		windows: []window{
			win(0, 0, 40, 1), win(300, 45, 105, 1), win(600, 110, 140, 1), win(900, 145, 205, 0.5), win(1200, 210, 270, 1),
		},
		samples: [][]sample{
			{
				mk(10, 100, false), mk(100, 300, false), mk(200, 1000, true), // window 0
				mk(270, 77, false),                       // while the clients were held: in no window
				mk(400, 5000, false),                     // window 1
				mk(610, 200, false), mk(700, 2000, true), // window 2
				mk(1000, 700, false), // window 3
				mk(1500, 900, false), // after the last window
			},
			{
				mk(249, 500, false),   // window 0
				mk(800, 400, false),   // window 2
				mk(1149, 800, true),   // window 3
				mk(1300, 9000, false), // window 4
			},
		},
	}
	s := p.summarize()
	if s.windows != 5 || s.calmWindows != 2 {
		t.Fatalf("windows %d, calm %d, want 5 and 2", s.windows, s.calmWindows)
	}
	// calm: 4 ops in 0.25 s at speed 1, 2 ops in 0.25 s at speed 0.5
	// -> 6 ops in 0.375 reference seconds
	if !near(s.throughput, 16) {
		t.Errorf("throughput = %v, want 16", s.throughput)
	}
	// CPU 40 ms + 60 ms x 0.5 over 6 ops
	if !near(s.cpuPerOp, 70000.0/6) {
		t.Errorf("cpu/op = %v, want %v us", s.cpuPerOp, 70000.0/6)
	}
	// calm lookups 100 300 500 and 700 x 0.5 -> median 325; calm updates 1000 and 800 x 0.5 -> 700
	if !near(s.lookupP50, 325) || !near(s.updateP50, 700) {
		t.Errorf("p50 = %v / %v, want 325 / 700", s.lookupP50, s.updateP50)
	}
	if s.calmLookups != 4 || s.calmUpdates != 2 {
		t.Errorf("calm samples %d / %d, want 4 / 2", s.calmLookups, s.calmUpdates)
	}
	// as measured, all windows: 16 4 12 8 4 ops/s -> median 8, quartiles 4 and 12
	if !near(s.rawThroughput.median, 8) || !near(s.rawThroughput.iqrFrac, 1) || !near(s.speed, 1) {
		t.Errorf("raw throughput %+v at speed %v, want median 8, iqr 1, speed 1", s.rawThroughput, s.speed)
	}
	if s.lookups != 8 || s.updates != 3 {
		t.Errorf("counted %d lookups and %d updates inside windows, want 8 and 3", s.lookups, s.updates)
	}
}

func TestStreamDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := genStream(w, 7, 3, 8, 4096)
		b := genStream(w, 7, 3, 8, 4096)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: same seed gave different streams", w.name)
		}
		if reflect.DeepEqual(a, genStream(w, 8, 3, 8, 4096)) {
			t.Errorf("%s: different seeds gave the same stream", w.name)
		}
		if reflect.DeepEqual(a, genStream(w, 7, 4, 8, 4096)) {
			t.Errorf("%s: different clients got the same stream", w.name)
		}
		updates := 0
		for _, o := range a {
			if o.key() < 0 || o.key() >= w.keys {
				t.Fatalf("%s: key %d out of range", w.name, o.key())
			}
			if o.update() {
				updates++
				if o.key()%8 != 3 {
					t.Fatalf("%s: client 3 updates key %d, which it does not own", w.name, o.key())
				}
			}
		}
		if got := float64(updates) / float64(len(a)); math.Abs(got-w.updateFrac) > 0.03 {
			t.Errorf("%s: update share %.3f, want about %.2f", w.name, got, w.updateFrac)
		}
	}
}

func TestClassifierMatchesKeyConfig(t *testing.T) {
	for i := 0; i < 50; i++ {
		cfg, ok := classify(keyName(i))
		if !ok || cfg != keyConfig(i) {
			t.Fatalf("classify(%s) = %v, want %v", keyName(i), cfg, keyConfig(i))
		}
	}
}

func TestCheckLookup(t *testing.T) {
	m := newModel(4)
	base := m.baseEntries(2)
	ok := base[:lookupT]
	if !checkLookup(m, 2, ok, 0) {
		t.Error("t distinct base entries rejected")
	}
	if checkLookup(m, 2, base[:lookupT-1], 0) {
		t.Error("fewer than t entries accepted")
	}
	dup := append(append([]core.Entry(nil), base[:lookupT-1]...), base[0])
	if checkLookup(m, 2, dup, 0) {
		t.Error("duplicate entry accepted")
	}
	foreign := append(append([]core.Entry(nil), base[:lookupT-1]...), m.baseEntries(3)[0])
	if checkLookup(m, 2, foreign, 0) {
		t.Error("another key's entry accepted")
	}
	withPriv := append(append([]core.Entry(nil), base[:lookupT-1]...), core.Entry(m.priv[2]))
	if checkLookup(m, 2, withPriv, 0) {
		t.Error("private entry accepted though it was never added")
	}
	m.addStarts[2].Add(1) // Add 1 begun
	if !checkLookup(m, 2, withPriv, 0) {
		t.Error("private entry rejected while its Add is in flight or acked")
	}
	m.delAcks[2].Add(1) // Delete 1 acked before the next lookup begins
	if checkLookup(m, 2, withPriv, m.delAcks[2].Load()) {
		t.Error("private entry accepted after its Delete was acked")
	}
	m.addStarts[2].Add(1) // Add 2 begins during the lookup
	if !checkLookup(m, 2, withPriv, 1) {
		t.Error("private entry rejected though a new Add began")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, start: 0, end: 100},                // root
		{id: 2, parent: 1, start: 10, end: 40},     // child
		{id: 3, parent: 1, start: 30, end: 60},     // overlaps child 2 by 10
		{id: 4, parent: 1, start: 90, end: 120},    // runs past the parent: clipped to 10
		{id: 5, parent: 2, start: 15, end: 25},     // nested grandchild
		{id: 6, parent: 99, start: 0, end: 7},      // parent not recorded: a root
		{id: 7, parent: 3, start: 35, end: 35},     // empty child
		{id: 8, parent: 1, start: 32, end: 38},     // wholly inside 2 and 3's union
		{id: 9, start: 200, end: 260},              // second tree
		{id: 10, parent: 9, start: 200, end: 260},  // child covering it all
		{id: 11, parent: 10, start: 210, end: 220}, // and its own child
	}
	want := map[uint32]int64{
		1:  100 - (50 + 10), // union of [10,60] and [90,100]
		2:  30 - 10,
		3:  30,
		4:  30,
		5:  10,
		6:  7,
		7:  0,
		8:  6,
		9:  0,
		10: 50,
		11: 10,
	}
	self := selfTimes(spans)
	for i, s := range spans {
		if self[i] != want[s.id] {
			t.Errorf("span %d: self = %d, want %d", s.id, self[i], want[s.id])
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package
// in step: the driver reads the file, the program prints from the tables.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q / %q, program %q / %q", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	check := func(kind string, file []metric, defs []metricDef, bounded bool) {
		if len(file) != len(defs) {
			t.Fatalf("%s: %d metrics declared, %d in the program", kind, len(file), len(defs))
		}
		for i, d := range defs {
			f := file[i]
			if f.Name != d.name || f.Unit != d.unit || f.Better != d.better {
				t.Errorf("%s %d: file has %+v, program %+v", kind, i, f, d)
			}
			if bounded != (f.Bound != nil) || (bounded && *f.Bound != d.bound) {
				t.Errorf("%s %s: bound in file and program differ", kind, d.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestSmoke runs every workload in both modes at a tenth of the size
// for one second: every declared metric must be emitted exactly for the
// workloads it applies to, the timed end-to-end ones must be non-zero,
// and no operation may fail.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts TCP clusters")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(context.Background(), w, runOptions{
				seed: 1, seconds: 1, traced: traced, smoke: true, allowDisk: true, outDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed (%v)", w.name, traced, res.failed, res.attempted, res.notes)
			}
			for _, d := range res.defs() {
				v, emitted := res.metrics[d.name]
				if emitted != d.appliesTo(w) {
					t.Errorf("%s: %s emitted=%v, applies=%v", w.name, d.name, emitted, d.appliesTo(w))
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, v)
				}
			}
			if len(res.metrics) > len(res.defs()) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", w.name, traced, len(res.metrics), len(res.defs()))
			}
			if traced {
				if _, err := os.Stat(res.tracePath); err != nil {
					t.Errorf("%s: trace file: %v", w.name, err)
				}
				if w.durable && (res.metrics["wal.fsyncs_per_update"] <= 0 || res.metrics["wal.recovered_ok"] != 1) {
					t.Errorf("%s: fsyncs/update %v, recovered_ok %v", w.name, res.metrics["wal.fsyncs_per_update"], res.metrics["wal.recovered_ok"])
				}
			}
		}
	}
}
