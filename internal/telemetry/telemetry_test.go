package telemetry

import (
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := reg.NewGauge("g")
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
	reg.NewGaugeFunc("gf", func() int64 { return 42 })

	snap := reg.Snapshot()
	if snap.Counters["c"] != 5 || snap.Gauges["g"] != 7 || snap.Gauges["gf"] != 42 {
		t.Fatalf("snapshot mismatch: %+v", snap)
	}
}

func TestHistogramBucketing(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("h", []int64{10, 100, 1000})
	for _, v := range []int64{0, 10, 11, 100, 500, 5000} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 5621 {
		t.Fatalf("sum = %d, want 5621", h.Sum())
	}
	s := h.snapshot()
	// Expected: le=10 → 2 (0, 10), le=100 → 2 (11, 100), le=1000 → 1
	// (500), overflow → 1 (5000).
	want := map[int64]int64{10: 2, 100: 2, 1000: 1, -1: 1}
	for _, b := range s.Buckets {
		if want[b.UpperBound] != b.Count {
			t.Fatalf("bucket le=%d count=%d, want %d", b.UpperBound, b.Count, want[b.UpperBound])
		}
		delete(want, b.UpperBound)
	}
	if len(want) != 0 {
		t.Fatalf("missing buckets: %v", want)
	}
}

func TestHistogramQuantileAndMean(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("h", []int64{10, 20, 30, 40, 50, 100})
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	s := h.snapshot()
	if mean := s.Mean(); mean != 50.5 {
		t.Fatalf("mean = %v, want 50.5", mean)
	}
	p50 := s.Quantile(0.5)
	if p50 < 40 || p50 > 60 {
		t.Fatalf("p50 = %d, want ~50", p50)
	}
	if q0 := s.Quantile(0); q0 > 10 {
		t.Fatalf("q0 = %d, want <= 10", q0)
	}
	if q1 := s.Quantile(1); q1 != 100 {
		t.Fatalf("q1 = %d, want 100", q1)
	}
}

func TestCounterVecOutOfRangeDiscards(t *testing.T) {
	reg := NewRegistry()
	v := reg.NewCounterVec("v", 3)
	v.At(-1).Inc() // e.g. transport.ClientOrigin
	v.At(99).Inc()
	v.At(1).Inc()
	if vals := v.Values(); !slices.Equal(vals, []int64{0, 1, 0}) {
		t.Fatalf("values = %v, want [0 1 0] (out-of-range discarded)", vals)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("dup")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	reg.NewHistogram("dup", []int64{1})
}

// TestConcurrentRecordingExact hammers one counter, one vector, and one
// histogram from many goroutines and checks the totals are exact: no
// recording may ever be lost. Run under -race this also proves the hot
// path is data-race free.
func TestConcurrentRecordingExact(t *testing.T) {
	const goroutines = 16
	const perG = 10000

	reg := NewRegistry()
	c := reg.NewCounter("c")
	vec := reg.NewCounterVec("vec", 4)
	h := reg.NewHistogram("h", []int64{8, 64, 512})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				vec.At(i % 4).Inc()
				h.Observe(int64(i % 1000))
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG
	if got := c.Value(); got != total {
		t.Fatalf("counter = %d, want %d", got, total)
	}
	for i, got := range vec.Values() {
		if got != total/4 {
			t.Fatalf("vec[%d] = %d, want %d", i, got, total/4)
		}
	}
	if got := h.Count(); got != total {
		t.Fatalf("histogram count = %d, want %d", got, total)
	}
	var bucketSum int64
	for _, b := range h.snapshot().Buckets {
		bucketSum += b.Count
	}
	if bucketSum != total {
		t.Fatalf("bucket sum = %d, want %d", bucketSum, total)
	}
}

// TestHotPathZeroAllocs asserts the acceptance criterion: recording a
// call adds zero allocations, into registered metrics and through a
// zero bundle alike.
func TestHotPathZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("c")
	g := reg.NewGauge("g")
	h := reg.NewDurationHistogram("h", DefaultLatencyBuckets)
	vec := reg.NewCounterVec("vec", 8)

	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(3)
		h.ObserveDuration(137 * time.Microsecond)
		vec.At(5).Inc()
	}); n != 0 {
		t.Fatalf("primitive hot path allocates %v per op, want 0", n)
	}
	for _, b := range []struct {
		name string
		tm   *TransportMetrics
		lm   *LookupMetrics
	}{
		{"registered", NewTransportMetrics(reg, "t", 8), NewLookupMetrics(reg)},
		{"zero", &TransportMetrics{}, &LookupMetrics{}},
	} {
		if n := testing.AllocsPerRun(1000, func() {
			b.tm.Calls.At(3).Inc()
			b.tm.Latency.At(3).ObserveDuration(250 * time.Microsecond)
			b.tm.Errors.At(3).Inc()
			b.tm.Dials.At(3).Inc()
			b.tm.Frames.Add(2)
			b.tm.Writes.Inc()
		}); n != 0 {
			t.Fatalf("%s transport bundle allocates %v per op, want 0", b.name, n)
		}
		if n := testing.AllocsPerRun(1000, func() {
			b.lm.Lookups.Inc()
			b.lm.Probes.Observe(2)
			b.lm.Latency.ObserveDuration(time.Millisecond)
			b.lm.Retries.Inc()
		}); n != 0 {
			t.Fatalf("%s lookup bundle allocates %v per op, want 0", b.name, n)
		}
	}
}

// A zero bundle records nothing and never panics: every primitive is
// nil-receiver safe, and a nil vector hands out nil elements.
func TestZeroBundleRecordsNothing(t *testing.T) {
	var tm TransportMetrics
	tm.Calls.At(1).Inc()
	tm.Latency.At(1).Observe(5)
	tm.Frames.Add(3)
	var wm WALMetrics
	wm.SnapshotBytes.Set(7)
	wm.LastSnapshot.Set(1)
	if tm.Calls.At(1) != nil || tm.Latency.At(1) != nil {
		t.Fatal("a nil vector must hand out nil elements")
	}
}

// TestSnapshotJSONRoundTrip proves the /metrics payload parses back
// into an identical snapshot — the plsctl stats round trip.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("requests").Add(7)
	reg.NewGauge("depth").Set(3)
	h := reg.NewDurationHistogram("latency", DefaultLatencyBuckets)
	h.ObserveDuration(300 * time.Microsecond)
	h.ObserveDuration(80 * time.Millisecond)
	vec := reg.NewCounterVec("per", 3)
	vec.At(0).Add(2)
	vec.At(2).Add(5)
	reg.NewGaugeVecFunc("gv", func() []int64 { return []int64{0, 10} })

	snap := reg.Snapshot()
	data, err := snap.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(snap)
	b, _ := json.Marshal(back)
	if string(a) != string(b) {
		t.Fatalf("round trip mismatch:\n%s\n%s", a, b)
	}

	out := back.String()
	for _, want := range []string{"requests", "depth", "latency", "per", "gv", "count=2"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestSkew(t *testing.T) {
	if s := Skew(nil); s != 0 {
		t.Fatalf("skew(nil) = %v", s)
	}
	if s := Skew([]int64{5, 5, 5, 5}); s != 0 {
		t.Fatalf("balanced skew = %v, want 0", s)
	}
	if s := Skew([]int64{0, 0, 0}); s != 0 {
		t.Fatalf("all-zero skew = %v, want 0", s)
	}
	// One server takes all the load: CoV of {n·m, 0, ..., 0} over n
	// servers is sqrt(n-1).
	if s := Skew([]int64{100, 0, 0, 0}); s < 1.7 || s > 1.8 {
		t.Fatalf("hot-spot skew = %v, want ~1.732", s)
	}
	bal := Skew([]int64{100, 101, 99, 100})
	hot := Skew([]int64{250, 50, 50, 50})
	if bal >= hot {
		t.Fatalf("skew ordering: balanced %v >= hot %v", bal, hot)
	}
}

func TestPublishExpvarIdempotent(t *testing.T) {
	reg := NewRegistry()
	reg.NewCounter("x").Inc()
	reg.PublishExpvar("telemetry_test_snapshot")
	// A second publish (same or different registry) must not panic.
	reg.PublishExpvar("telemetry_test_snapshot")
	NewRegistry().PublishExpvar("telemetry_test_snapshot")
}
