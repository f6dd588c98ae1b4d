package selector

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

func base(n int) []int {
	b := make([]int, n)
	for i := range b {
		b[i] = i
	}
	return b
}

// A cold selector must return every order untouched (and the very same
// backing semantics a nil selector gives), so seeded runs stay
// byte-identical until real signal exists.
func TestColdSelectorIsIdentity(t *testing.T) {
	s := New(8, Options{})
	in := []int{5, 2, 7, 0, 1, 6, 3, 4}
	for _, got := range [][]int{
		s.Order("k", in),
		s.OrderMulti([]string{"a", "b"}, in),
		s.OrderGlobal(in, nil),
	} {
		if !reflect.DeepEqual(got, in) {
			t.Fatalf("cold order = %v, want %v", got, in)
		}
	}
	var nilSel *Selector
	if got := nilSel.Order("k", in); !reflect.DeepEqual(got, in) {
		t.Fatalf("nil selector order = %v, want %v", got, in)
	}
}

// OrderGlobal's preferred servers (an update's homes) lead: in base's
// order on a nil or cold selector, in health order on a warm one, where
// a preferred server with an open or half-open circuit stays at the back.
func TestOrderGlobalPrefersHealthyServers(t *testing.T) {
	in := []int{5, 2, 0, 4, 1, 3}
	var nilSel *Selector
	for _, s := range []*Selector{nilSel, New(6, Options{})} {
		if got, want := s.OrderGlobal(slices.Clone(in), []int{4, 2}), []int{2, 4, 5, 0, 1, 3}; !reflect.DeepEqual(got, want) {
			t.Fatalf("cold order = %v, want %v", got, want)
		}
	}

	s := New(6, Options{})
	s.clock = transport.NewClock()
	for i := 0; i < defaultFailThreshold; i++ {
		s.RecordFailure(4)
	}
	s.RecordSuccess(0, time.Millisecond)
	s.RecordSuccess(2, 10*time.Millisecond) // slow: behind 0 in health order
	// By health alone: 5 0 1 3 healthy, 2 slow, 4 open.
	if got, want := s.OrderGlobal(in, nil), []int{5, 0, 1, 3, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if got, want := s.OrderGlobal(in, []int{2, 0}), []int{0, 2, 5, 1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order preferring 2 and 0 = %v, want %v (ties in health order)", got, want)
	}
	if got, want := s.OrderGlobal(in, []int{4, 2}), []int{2, 5, 0, 1, 3, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order preferring open 4 = %v, want %v", got, want)
	}
	_ = s.clock.Sleep(context.Background(), 2*probeAfter) // 4 is granted a half-open trial: still not a leader
	if got, want := s.OrderGlobal(in, []int{4}), []int{5, 0, 1, 3, 2, 4}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order preferring half-open 4 = %v, want %v", got, want)
	}
}

func TestOrderPrefersCachedServers(t *testing.T) {
	s := New(6, Options{})
	s.RecordAnswer("k", 4, 3)
	s.RecordAnswer("k", 2, 9) // fatter answer: must lead
	got := s.Order("k", base(6))
	want := []int{2, 4, 0, 1, 3, 5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	// A different key has no cached route and keeps base order.
	if got := s.Order("other", base(6)); !reflect.DeepEqual(got, base(6)) {
		t.Fatalf("uncached key order = %v, want identity", got)
	}
}

// With a topology attached, healthy servers sort nearest-zone-first,
// stable within a distance band, and the ordering applies even with no
// observations (the selector is never cold once zone-aware).
func TestZoneOrderingPrefersNearServers(t *testing.T) {
	tp, err := topo.Parse("2x2x2", 8) // 2 regions, 2 DCs each, 2 racks each
	if err != nil {
		t.Fatal(err)
	}
	s := New(8, Options{})
	s.SetTopology(tp, tp.ZoneOf(0)) // client co-located with server 0's rack
	got := s.Order("k", base(8))
	// Round-robin rack assignment: server 0 shares rack with nobody at
	// n=8 over 8 racks... each server has its own rack. Distances from
	// rack of server 0: same-rack {0}, same-DC {rack sibling}, same
	// region, cross region. Verify monotone non-decreasing distance.
	last := -1
	for _, sv := range got {
		d := tp.DistZone(tp.ZoneOf(0), sv)
		if d < last {
			t.Fatalf("order %v not sorted by zone distance (server %d dist %d after dist %d)", got, sv, d, last)
		}
		last = d
	}
	if got[0] != 0 {
		t.Fatalf("order %v: co-located server 0 must lead", got)
	}
	// Stability: equidistant servers keep base relative order.
	seen := map[int][]int{}
	for _, sv := range got {
		d := tp.DistZone(tp.ZoneOf(0), sv)
		seen[d] = append(seen[d], sv)
	}
	for d, svs := range seen {
		for i := 1; i < len(svs); i++ {
			if svs[i] < svs[i-1] {
				t.Fatalf("distance band %d order %v not stable wrt base", d, svs)
			}
		}
	}
}

// Zone ordering ranks below health signal: an open-circuit same-rack
// server sorts behind healthy far servers, and a cached fat answer
// beats proximity.
func TestZoneOrderingYieldsToHealthAndCache(t *testing.T) {
	tp, err := topo.Parse("2x1x2", 4)
	if err != nil {
		t.Fatal(err)
	}
	s := New(4, Options{})
	s.SetTopology(tp, tp.ZoneOf(0))
	for i := 0; i < 10; i++ {
		s.RecordFailure(0) // same-zone server goes open
	}
	got := s.Order("k", base(4))
	if got[len(got)-1] != 0 {
		t.Fatalf("order %v: open same-zone server 0 must sort last", got)
	}
	// A cached answer on the farthest server leads everything.
	s2 := New(4, Options{})
	s2.SetTopology(tp, tp.ZoneOf(0))
	far := 3
	s2.RecordAnswer("k", far, 5)
	if got := s2.Order("k", base(4)); got[0] != far {
		t.Fatalf("order %v: cached server %d must lead despite distance", got, far)
	}
}

func TestNegativeEntriesDemoteAndInvalidate(t *testing.T) {
	s := New(4, Options{})
	s.RecordAnswer("k", 1, 0) // negative: answered empty
	got := s.Order("k", base(4))
	want := []int{0, 2, 3, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	// add/delete invalidates negatives: order reverts to base.
	s.InvalidateNegatives("k")
	if got := s.Order("k", base(4)); !reflect.DeepEqual(got, base(4)) {
		t.Fatalf("after InvalidateNegatives order = %v, want identity", got)
	}
	// A positive answer overwrites a negative verdict.
	s.RecordAnswer("k", 1, 0)
	s.RecordAnswer("k", 1, 5)
	if got := s.Order("k", base(4)); !reflect.DeepEqual(got, []int{1, 0, 2, 3}) {
		t.Fatalf("after positive overwrite order = %v", got)
	}
}

func TestFailureStreakOpensAndHalfOpenRecovers(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewSelectorMetrics(reg)
	s := New(4, Options{Metrics: m})
	s.clock = transport.NewClock()
	s.RecordFailure(1)
	s.RecordFailure(1)
	if got := s.Order("k", base(4)); !reflect.DeepEqual(got, base(4)) {
		t.Fatalf("below threshold, order = %v, want identity", got)
	}
	s.RecordFailure(1) // crosses the threshold
	if got := s.Order("k", base(4)); !reflect.DeepEqual(got, []int{0, 2, 3, 1}) {
		t.Fatalf("open server not demoted: %v", got)
	}
	if m.Demotions.Value() != 1 {
		t.Fatalf("demotions = %d, want 1", m.Demotions.Value())
	}
	if h := s.Health()[1]; !h.Open || h.ConsecFails != 3 {
		t.Fatalf("health = %+v, want open with 3 fails", h)
	}

	// Before ProbeAfter a call to the open server is no trial.
	inner := &scriptCaller{n: 4, down: map[int]bool{1: true}}
	obs := Observe(inner, s)
	ctx := context.Background()
	if _, err := obs.Call(ctx, 1, wire.Ack{}); !errors.Is(err, transport.ErrServerDown) {
		t.Fatalf("want ErrServerDown, got %v", err)
	}
	if m.HalfOpenProbes.Value() != 0 {
		t.Fatalf("probe granted too early")
	}
	// After ProbeAfter orders offer it a trial but do not spend one...
	_ = s.clock.Sleep(ctx, 2*time.Second)
	_ = s.Order("k", base(4))
	if m.HalfOpenProbes.Value() != 0 {
		t.Fatalf("an order spent the trial: half-open probes = %d, want 0", m.HalfOpenProbes.Value())
	}
	// ...the call that reaches the server does, and its success closes
	// the server entirely.
	inner.down[1] = false
	if _, err := obs.Call(ctx, 1, wire.Ack{}); err != nil {
		t.Fatal(err)
	}
	if m.HalfOpenProbes.Value() != 1 {
		t.Fatalf("half-open probes = %d, want 1", m.HalfOpenProbes.Value())
	}
	if h := s.Health()[1]; h.Open || h.ConsecFails != 0 {
		t.Fatalf("health after success = %+v, want closed", h)
	}
}

// A half-open trial is spent by the call that reaches the open server,
// not by an order: a lookup that reaches t before the back of its order
// never sends the trial, so it must neither be counted nor keep the
// next order from offering the server.
func TestHalfOpenTrialIsSpentBySendNotByOrder(t *testing.T) {
	m := telemetry.NewSelectorMetrics(telemetry.NewRegistry())
	s := New(4, Options{Metrics: m})
	s.clock = transport.NewClock()
	for i := 0; i < 3; i++ {
		s.RecordFailure(3)
	}
	s.RecordAnswer("k", 0, 8)
	s.RecordAnswer("k", 1, 8)
	s.RecordAnswer("k", 2, 0) // negative: behind a half-open server, ahead of an open one
	_ = s.clock.Sleep(context.Background(), 2*time.Second)
	halfOpen, open := []int{0, 1, 3, 2}, []int{0, 1, 2, 3}
	for i := 0; i < 2; i++ {
		if got := s.Order("k", base(4)); !reflect.DeepEqual(got, halfOpen) {
			t.Fatalf("order %d = %v, want %v: server 3 offered its trial", i, got, halfOpen)
		}
		if got := m.HalfOpenProbes.Value(); got != 0 {
			t.Fatalf("after order %d: half-open probes = %d, want 0 (no call reached server 3)", i, got)
		}
	}

	// The call that reaches server 3 is the trial: counted once, and
	// while it is out, orders put server 3 back behind everything.
	inner := &hookCaller{n: 4, call: func(server int) {
		if got := m.HalfOpenProbes.Value(); got != 1 {
			t.Errorf("during the trial: half-open probes = %d, want 1", got)
		}
		if got := s.Order("k", base(4)); !reflect.DeepEqual(got, open) {
			t.Errorf("order during the trial = %v, want %v", got, open)
		}
	}}
	if _, err := Observe(inner, s).Call(context.Background(), 3, wire.Ack{}); err != nil {
		t.Fatal(err)
	}
	if h := s.Health()[3]; h.Open {
		t.Fatalf("successful trial left server 3 open: %+v", h)
	}
}

// hookCaller answers every call after running call with its server.
type hookCaller struct {
	n    int
	call func(server int)
}

func (c *hookCaller) NumServers() int { return c.n }

func (c *hookCaller) Call(_ context.Context, server int, _ wire.Message) (wire.Message, error) {
	c.call(server)
	return wire.Ack{}, nil
}

func TestSlowServerSortsBehindFastPeers(t *testing.T) {
	s := New(3, Options{})
	s.RecordSuccess(0, time.Millisecond)
	s.RecordSuccess(2, 10*time.Millisecond) // 10x the best: slow tier
	got := s.Order("k", base(3))
	// Server 1 has no samples: neutral, stays healthy tier with 0.
	want := []int{0, 1, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	if got := s.Order("k", []int{2, 1, 0}); !reflect.DeepEqual(got, []int{1, 0, 2}) {
		t.Fatalf("order = %v, want slow server last", got)
	}
}

// keysInOneSet returns n distinct keys whose hashes share a set of the
// routing cache.
func keysInOneSet(n int) []string {
	bySet := map[uint64][]string{}
	for i := 0; ; i++ {
		k := fmt.Sprintf("k%d", i)
		set := keyHash(k) >> setShift
		if bySet[set] = append(bySet[set], k); len(bySet[set]) == n {
			return bySet[set]
		}
	}
}

// A set holds cacheWays keys. One more evicts the set's least recently
// used key, and an order for a key counts as a use.
func TestRouteCacheLRUBound(t *testing.T) {
	s := New(2, Options{})
	keys := keysInOneSet(cacheWays + 2)
	for _, k := range keys[:cacheWays] {
		s.RecordAnswer(k, 1, 2)
	}
	s.Order(keys[0], base(2)) // keys[1] is now the least recently used
	s.RecordAnswer(keys[cacheWays], 1, 2)
	s.RecordAnswer(keys[cacheWays+1], 1, 2)
	if got := s.CachedKeys(); got != cacheWays {
		t.Fatalf("cached keys = %d, want %d", got, cacheWays)
	}
	// The two least recently used keys were evicted: their order is
	// identity again even though the cache is warm.
	for _, k := range keys[1:3] {
		if got := s.Order(k, base(2)); !reflect.DeepEqual(got, base(2)) {
			t.Fatalf("evicted key %s order = %v, want identity", k, got)
		}
	}
	// The used and the newest keys survived.
	for _, k := range []string{keys[0], keys[3], keys[cacheWays+1]} {
		if got := s.Order(k, base(2)); !reflect.DeepEqual(got, []int{1, 0}) {
			t.Fatalf("kept key %s order = %v, want cached first", k, got)
		}
	}
}

func TestCachePerKeyServerBound(t *testing.T) {
	s := New(8, Options{})
	for server, entries := range []int{1, 5, 3, 4, 2} {
		s.RecordAnswer("k", server, entries)
	}
	// Only the four largest answers are remembered: 1 (5 entries), 3, 2
	// and 4; server 0 fell off the bounded list.
	want := []int{1, 3, 2, 4, 0, 5, 6, 7}
	if got := s.Order("k", base(8)); !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	// An answer smaller than every remembered one is not kept...
	s.RecordAnswer("k", 5, 1)
	if got := s.Order("k", base(8)); !reflect.DeepEqual(got, want) {
		t.Fatalf("order after a small answer = %v, want %v", got, want)
	}
	// ...and a new answer from a remembered server re-ranks it.
	s.RecordAnswer("k", 4, 9)
	if got, want := s.Order("k", base(8)), []int{4, 1, 3, 2, 0, 5, 6, 7}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order after a re-answer = %v, want %v", got, want)
	}
}

// Derived routes fill a slot's free routes and nothing else, at any n:
// they never push a measured route out, they skip a slow server, and
// once nothing more can be derived the key's routes say so (Complete),
// so a lookup stops hashing entries.
func TestSelectorDerivedRoutesKeepMeasuredOnes(t *testing.T) {
	const n = 8
	s := New(n, Options{})
	for server := 0; server < n; server++ {
		s.RecordSuccess(server, time.Millisecond)
	}
	s.RecordSuccess(3, 10*time.Millisecond) // slow: past twice the best EWMA
	s.RecordAnswer("k", 0, 2)
	s.RecordAnswer("k", 1, 1)
	s.RecordAnswer("k", 2, 0)
	if _, r := s.OrderRoutes("k", base(n)); r.Complete() {
		t.Fatalf("two routes of four and five unknown servers: Complete, want more to derive")
	}
	// Server 2 is negative, 3 slow; 4 and 5 take the two free routes,
	// in order of size, and 6 and 7 find no room.
	s.RecordDerived("k", []int{9, 9, 9, 9, 5, 3, 9, 9})
	want := []int{4, 5, 0, 1, 6, 7, 3, 2}
	if got := s.Order("k", base(n)); !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	_, r := s.OrderRoutes("k", base(n))
	if !r.Complete() {
		t.Fatalf("a full slot: not Complete, want nothing more to derive")
	}
	for i, wantServer := range []int{4, 5, 0, 1} {
		if server, _, ok := r.Cached(i); !ok || server != wantServer {
			t.Fatalf("cached tier %d = %d (%v), want %d", i, server, ok, wantServer)
		}
	}
	// Only slow servers left unknown: nothing to derive either.
	s.Invalidate("k")
	for server := 0; server < n; server++ {
		if server != 3 {
			s.RecordAnswer("k", server, 0)
		}
	}
	if _, r := s.OrderRoutes("k", base(n)); !r.Complete() {
		t.Fatalf("every server known but the slow one: not Complete")
	}
}

// What a slot cannot hold, it forgets rather than misreads: an empty
// answer from a server at or beyond negWidth, any answer from a server
// id wider than a route, and answer sizes beyond math.MaxUint16, which
// saturate (equal sizes rank by server id).
func TestSlotForgetsWhatItCannotHold(t *testing.T) {
	const n = 1 << 17
	s := New(n, Options{})
	s.RecordAnswer("neg", negWidth, 0)
	s.RecordAnswer("wide", math.MaxUint16+1, 3)
	if got := s.CachedKeys(); got != 1 {
		t.Fatalf("cached keys = %d, want 1 (the negative's slot, empty)", got)
	}
	in := []int{negWidth, math.MaxUint16 + 1, 0}
	for _, k := range []string{"neg", "wide"} {
		if got := s.Order(k, in); !reflect.DeepEqual(got, in) {
			t.Fatalf("order for %q = %v, want %v", k, got, in)
		}
	}
	s.RecordAnswer("big", 9, 80000)
	s.RecordAnswer("big", 7, 70000)
	if got := s.Order("big", []int{0, 9, 7}); !reflect.DeepEqual(got, []int{7, 9, 0}) {
		t.Fatalf("order = %v, want saturated sizes ranked by server id", got)
	}
}

// An order on a warm cache allocates only itself, and recording or
// invalidating a route allocates nothing once the table exists.
func TestOrderAndRecordAllocations(t *testing.T) {
	s := New(4, Options{Metrics: telemetry.NewSelectorMetrics(telemetry.NewRegistry())})
	for server := 0; server < 4; server++ {
		s.RecordAnswer("a", server, server)
		s.RecordAnswer("b", server, 3-server)
	}
	s.RecordSuccess(1, time.Millisecond)
	keys, in := []string{"a", "b"}, base(4)
	for name, f := range map[string]func(){
		"OrderMulti": func() { s.OrderMulti(keys, in) },
		"Order":      func() { s.Order("a", in) },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs > 1 {
			t.Errorf("%s: %.1f allocs/op, want <= 1", name, allocs)
		}
	}
	for name, f := range map[string]func(){
		"RecordAnswer":        func() { s.RecordAnswer("a", 2, 7) },
		"InvalidateNegatives": func() { s.RecordAnswer("b", 3, 0); s.InvalidateNegatives("b") },
		"Invalidate":          func() { s.RecordAnswer("c", 1, 3); s.Invalidate("c") },
	} {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// listLRU is the layout of the routing cache the slot table replaced: a
// list of per-key records, most recent first, a map from key to list
// element, and per-key answer slices grown by append.
type listLRU struct {
	entries map[string]*list.Element
	lru     *list.List
}

type listRoutes struct {
	key string
	pos []posEntry
	neg []int
}

func (c *listLRU) record(key string, server, entries int) {
	el, ok := c.entries[key]
	if !ok {
		el = c.lru.PushFront(&listRoutes{key: key})
		c.entries[key] = el
	}
	kr := el.Value.(*listRoutes)
	if entries <= 0 {
		kr.neg = append(kr.neg, server)
		return
	}
	kr.pos = append(kr.pos, posEntry{server: server, entries: entries})
}

// heapGrowth runs build and returns the live heap bytes what it built
// holds — a lower bound: a collection may also free older garbage — and
// every byte build allocated, an upper bound. Each reading follows two
// collections, the second emptying what sync.Pools kept through the
// first.
func heapGrowth(build func() any) (live, allocated uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := build()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept)
	return after.HeapAlloc - before.HeapAlloc, after.TotalAlloc - before.TotalAlloc
}

// The slot table costs no more bytes than the list-and-map LRU it
// replaced did when full — 4 096 keys, each answered by three servers
// and empty on a fourth — and holds 4× the keys. Key strings, which the
// LRU kept and the table does not, are excluded from both.
func TestRouteCacheFootprint(t *testing.T) {
	keys := make([]string, 4096)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%05d", i)
	}
	fill := func(record func(key string, server, entries int)) {
		for _, k := range keys {
			record(k, 0, 8)
			record(k, 1, 7)
			record(k, 2, 6)
			record(k, 3, 0)
		}
	}
	lru, _ := heapGrowth(func() any {
		c := &listLRU{entries: map[string]*list.Element{}, lru: list.New()}
		fill(c.record)
		return c
	})
	_, table := heapGrowth(func() any {
		s := New(4, Options{})
		fill(s.RecordAnswer)
		return s
	})
	t.Logf("4 096 keys: list-and-map LRU %d B live, selector with slot table %d B allocated (%d slots)", lru, table, cacheSlots)
	if table > lru || table > cacheBytes {
		t.Errorf("selector allocated %d B, want <= the LRU's %d B and the %d B budget", table, lru, cacheBytes)
	}
	if cacheSlots < 4*len(keys) {
		t.Errorf("capacity %d keys, want >= %d", cacheSlots, 4*len(keys))
	}
}

// One Selector serves every driver of a process: orders, answers and
// invalidations from many goroutines share its table and its scratch
// buffers under its lock, and every order stays the caller's own
// permutation of base (run with -race).
func TestConcurrentOrdersAndRecords(t *testing.T) {
	const n = 6
	s := New(n, Options{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("k%d", i%50)
				s.RecordAnswer(k, (g+i)%n, i%5)
				order := s.OrderMulti([]string{k, fmt.Sprintf("k%d", (i+g)%50)}, base(n))
				sorted := slices.Clone(order)
				if slices.Sort(sorted); !slices.Equal(sorted, base(n)) {
					t.Errorf("order %v is not a permutation of %v", order, base(n))
					return
				}
				switch i % 7 {
				case 0:
					s.Invalidate(k)
				case 1:
					s.InvalidateNegatives(k)
				case 2:
					s.RecordSuccess(g, time.Duration(1+i%3)*time.Millisecond)
				case 3:
					s.RecordFailure(g)
				case 4:
					s.startTrial(g)
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestOrderMultiPoolsVotes(t *testing.T) {
	s := New(4, Options{})
	s.RecordAnswer("a", 3, 2)
	s.RecordAnswer("b", 3, 2)
	s.RecordAnswer("b", 1, 3)
	// Server 3 has 4 pooled entries across keys, server 1 has 3.
	got := s.OrderMulti([]string{"a", "b"}, base(4))
	if got[0] != 3 || got[1] != 1 {
		t.Fatalf("multi order = %v, want 3,1 first", got)
	}
	// Negative only when every cached pending key says negative.
	s.RecordAnswer("a", 0, 0)
	s.RecordAnswer("b", 0, 0)
	got = s.OrderMulti([]string{"a", "b"}, base(4))
	if got[len(got)-1] != 0 {
		t.Fatalf("multi order = %v, want 0 last", got)
	}
}

func TestInvalidateDropsKey(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := telemetry.NewSelectorMetrics(reg)
	s := New(4, Options{Metrics: m})
	s.RecordAnswer("k", 2, 5)
	s.Invalidate("k")
	// Cache is now empty and no scoreboard signal exists: fully cold.
	if got := s.Order("k", base(4)); !reflect.DeepEqual(got, base(4)) {
		t.Fatalf("order after invalidate = %v, want identity", got)
	}
	if m.Invalidations.Value() != 1 {
		t.Fatalf("invalidations = %d, want 1", m.Invalidations.Value())
	}
	s.Invalidate("k") // absent: not counted
	if m.Invalidations.Value() != 1 {
		t.Fatalf("absent invalidate counted")
	}
}

// Regression: after a membership resize — including a same-n
// renumbering, where a drain+join leave the cluster size unchanged but
// every id above the leaver now names a different server — the warm
// route cache must be flushed. A surviving cached entry would route a
// key's first probe to a renumbered slot.
func TestResizeFlushesRouteCacheOnRenumber(t *testing.T) {
	for _, tc := range []struct {
		name string
		from int
		to   int
	}{
		{"shrink", 5, 4},
		{"same-n renumber", 5, 5},
		{"grow", 5, 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(tc.from, Options{})
			// Warm the cache: server 4 (the highest slot — the one a drain
			// renumbers or removes) answered key k with a fat answer, and
			// server 1 answered empty.
			s.RecordAnswer("k", 4, 9)
			s.RecordAnswer("k", 1, 0)
			if got := s.Order("k", base(tc.from))[0]; got != 4 {
				t.Fatalf("warm cache order leads with %d, want 4", got)
			}
			epochBefore := s.FailureEpoch()
			s.Resize(tc.to)
			if got := s.CachedKeys(); got != 0 {
				t.Fatalf("%d keys survived Resize(%d→%d), want 0", got, tc.from, tc.to)
			}
			// The cache no longer votes: order over the new id space is the
			// seeded base untouched, so no probe targets a renumbered slot.
			if got := s.Order("k", base(tc.to)); !reflect.DeepEqual(got, base(tc.to)) {
				t.Fatalf("post-resize order = %v, want identity", got)
			}
			if got := s.FailureEpoch(); got <= epochBefore {
				t.Fatalf("FailureEpoch did not advance across Resize: %d -> %d", epochBefore, got)
			}
		})
	}
}

// scriptCaller fails or succeeds per server for the observe middleware.
type scriptCaller struct {
	n    int
	down map[int]bool
}

func (c *scriptCaller) NumServers() int { return c.n }

func (c *scriptCaller) Call(ctx context.Context, server int, _ wire.Message) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if c.down[server] {
		return nil, fmt.Errorf("%w: server %d", transport.ErrServerDown, server)
	}
	return wire.Ack{}, nil
}

func TestObserveFeedsScoreboard(t *testing.T) {
	s := New(3, Options{})
	s.failThreshold = 2
	obs := Observe(&scriptCaller{n: 3, down: map[int]bool{1: true}}, s)
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := obs.Call(ctx, 1, wire.Ack{}); !errors.Is(err, transport.ErrServerDown) {
			t.Fatalf("want ErrServerDown, got %v", err)
		}
	}
	if _, err := obs.Call(ctx, 0, wire.Ack{}); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if !h[1].Open {
		t.Fatalf("server 1 not opened: %+v", h[1])
	}
	if h[0].Samples != 1 || h[0].EWMA <= 0 {
		t.Fatalf("server 0 success not recorded: %+v", h[0])
	}
	// A cancelled context is attributed to neither side.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	before := s.Health()[2]
	_, _ = obs.Call(cancelled, 2, wire.Ack{})
	if after := s.Health()[2]; after != before {
		t.Fatalf("context error recorded: %+v -> %+v", before, after)
	}
	// Observe with a nil selector is the identity middleware.
	inner := &scriptCaller{n: 3}
	if got := Observe(inner, nil); got != transport.Caller(inner) {
		t.Fatalf("Observe(nil selector) should return inner")
	}
}

// The repair daemon's health contract: open circuits classify as
// presumed dead, and the failure epoch advances monotonically on every
// recorded failure so converged sweeps can be skipped.
func TestPresumedDeadAndFailureEpoch(t *testing.T) {
	s := New(4, Options{})
	s.failThreshold = 2
	if got := s.FailureEpoch(); got != 0 {
		t.Fatalf("cold FailureEpoch = %d, want 0", got)
	}
	if dead := s.PresumedDead(); len(dead) != 4 {
		t.Fatalf("PresumedDead len = %d, want 4", len(dead))
	} else {
		for i, d := range dead {
			if d {
				t.Fatalf("cold server %d presumed dead", i)
			}
		}
	}
	s.RecordFailure(2)
	if got := s.FailureEpoch(); got != 1 {
		t.Fatalf("FailureEpoch after one failure = %d, want 1", got)
	}
	if s.PresumedDead()[2] {
		t.Fatal("server 2 presumed dead below FailThreshold")
	}
	s.RecordFailure(2)
	if !s.PresumedDead()[2] {
		t.Fatal("server 2 not presumed dead after crossing FailThreshold")
	}
	if got := s.FailureEpoch(); got != 2 {
		t.Fatalf("FailureEpoch = %d, want 2", got)
	}
	// Recovery closes the circuit but never rewinds the epoch.
	s.RecordSuccess(2, time.Millisecond)
	if s.PresumedDead()[2] {
		t.Fatal("server 2 still presumed dead after success")
	}
	if got := s.FailureEpoch(); got != 2 {
		t.Fatalf("FailureEpoch rewound to %d after success", got)
	}
}
