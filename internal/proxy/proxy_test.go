package proxy_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// gatedCaller parks lookup calls on a gate channel when armed, letting
// tests hold a backend probe in flight while more clients arrive.
type gatedCaller struct {
	inner transport.Caller
	mu    sync.Mutex
	gate  chan struct{} // nil = pass through
}

func (g *gatedCaller) NumServers() int { return g.inner.NumServers() }

func (g *gatedCaller) Clock() *transport.Clock { return transport.ClockOf(g.inner) }

func (g *gatedCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	k := msg.Kind()
	if k == wire.KindLookup || k == wire.KindLookupBatch {
		g.mu.Lock()
		gate := g.gate
		g.mu.Unlock()
		if gate != nil {
			<-gate
		}
	}
	return g.inner.Call(ctx, server, msg)
}

func (g *gatedCaller) arm() chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate = make(chan struct{})
	return g.gate
}

func (g *gatedCaller) release() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.gate != nil {
		close(g.gate)
		g.gate = nil
	}
}

type testRig struct {
	p  *proxy.Proxy
	m  *telemetry.ProxyMetrics
	gc *gatedCaller
}

// advance moves the cluster's virtual clock, which the proxy's TTL
// reads, d forward.
func (r *testRig) advance(d time.Duration) {
	_ = transport.ClockOf(r.gc).Sleep(context.Background(), d)
}

func newRig(t *testing.T, ttl time.Duration, entries int, opts ...core.Option) *testRig {
	t.Helper()
	cl := cluster.New(4, stats.NewRNG(7))
	rig := &testRig{gc: &gatedCaller{inner: cl.Caller()}}
	reg := telemetry.NewRegistry()
	rig.m = telemetry.NewProxyMetrics(reg)
	opts = append([]core.Option{
		core.WithSeed(11),
		core.WithDefaultConfig(core.Config{Scheme: core.RandomServer, X: 2}),
	}, opts...)
	svc, err := core.NewService(rig.gc, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rig.p = proxy.New(svc, proxy.Options{
		CacheEntries: entries,
		TTL:          ttl,
		Metrics:      rig.m,
	})
	return rig
}

func place(t *testing.T, p *proxy.Proxy, key string, entries ...string) {
	t.Helper()
	ack := p.Handle(context.Background(), wire.Place{
		Key:     key,
		Config:  wire.Config{Scheme: wire.RandomServer, X: 2},
		Entries: entries,
	})
	if a := ack.(wire.Ack); a.Err != "" {
		t.Fatalf("place %q: %s", key, a.Err)
	}
}

func lookup(t *testing.T, p *proxy.Proxy, key string, tt int) wire.LookupReply {
	t.Helper()
	reply := p.Handle(context.Background(), wire.Lookup{Key: key, T: tt})
	lr, ok := reply.(wire.LookupReply)
	if !ok {
		t.Fatalf("lookup %q: unexpected reply %T", key, reply)
	}
	return lr
}

func TestCacheHitThenTTLExpiry(t *testing.T) {
	rig := newRig(t, time.Second, 0)
	place(t, rig.p, "k", "a", "b", "c")

	first := lookup(t, rig.p, "k", 2)
	if len(first.Entries) < 2 || first.Err != "" {
		t.Fatalf("first lookup: %+v", first)
	}
	if rig.m.CacheMisses.Value() != 1 || rig.m.CacheHits.Value() != 0 {
		t.Fatalf("cold lookup: hits=%d misses=%d", rig.m.CacheHits.Value(), rig.m.CacheMisses.Value())
	}

	// Within the TTL: served from cache, byte-identical, no backend probe.
	second := lookup(t, rig.p, "k", 2)
	if !reflect.DeepEqual(second.Entries, first.Entries) {
		t.Fatalf("cached answer %v != original %v", second.Entries, first.Entries)
	}
	if rig.m.CacheHits.Value() != 1 {
		t.Fatalf("cache hits = %d, want 1", rig.m.CacheHits.Value())
	}

	// Past the TTL: the entry is expired, counted, and re-fetched.
	rig.advance(2 * time.Second)
	third := lookup(t, rig.p, "k", 2)
	if third.Err != "" || len(third.Entries) < 2 {
		t.Fatalf("post-expiry lookup: %+v", third)
	}
	if rig.m.CacheExpired.Value() != 1 {
		t.Fatalf("cache expired = %d, want 1", rig.m.CacheExpired.Value())
	}
	if rig.m.CacheMisses.Value() != 2 {
		t.Fatalf("cache misses = %d, want 2 (cold + expired)", rig.m.CacheMisses.Value())
	}
	if got := rig.p.CacheLen(); got != 1 {
		t.Fatalf("cache len = %d, want 1 (refilled)", got)
	}
}

// Singleflight: concurrent duplicate lookups for the same (key, t)
// collapse into one backend flight; the collapse count is asserted via
// telemetry, not inferred.
func TestSingleflightCollapsesDuplicates(t *testing.T) {
	rig := newRig(t, 0, 0) // TTL 0: cache disabled, coalescing still on
	place(t, rig.p, "hot", "a", "b", "c")

	const followers = 8
	rig.gc.arm()
	var wg sync.WaitGroup
	replies := make([]wire.LookupReply, followers+1)
	for i := 0; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			replies[i] = lookup(t, rig.p, "hot", 2)
		}(i)
	}
	// Wait until exactly one flight is airborne and every other caller
	// has coalesced behind it.
	deadline := time.Now().Add(5 * time.Second)
	for rig.m.Coalesced.Value() < followers {
		if time.Now().After(deadline) {
			t.Fatalf("coalesced = %d, want %d", rig.m.Coalesced.Value(), followers)
		}
		time.Sleep(time.Millisecond)
	}
	rig.gc.release()
	wg.Wait()

	if got := rig.m.Flights.Value(); got != 1 {
		t.Fatalf("flights = %d, want 1 (one leader)", got)
	}
	if got := rig.m.Coalesced.Value(); got != followers {
		t.Fatalf("coalesced = %d, want %d", got, followers)
	}
	for i, r := range replies {
		if r.Err != "" || len(r.Entries) < 2 {
			t.Fatalf("caller %d reply %+v", i, r)
		}
		if !reflect.DeepEqual(r.Entries, replies[0].Entries) {
			t.Fatalf("caller %d got %v, leader got %v", i, r.Entries, replies[0].Entries)
		}
	}
}

// What an acked update does to a cached answer, rule by rule. The key
// holds eight entries under Round-Robin-1 on four servers, two per
// server and no entry twice, so any lookup for 3 or 4 entries probes
// two servers and caches exactly four entries: one to spare at t=3,
// none at t=4. The TTL is long enough that only the update explains a
// changed answer.
func TestUpdatesInvalidateCachedAnswers(t *testing.T) {
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 1}
	base := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"}
	without := func(entries []string, v string) []string {
		return slices.DeleteFunc(slices.Clone(entries), func(e string) bool { return e == v })
	}
	notIn := func(cached []string) string {
		for _, e := range base {
			if !slices.Contains(cached, e) {
				return e
			}
		}
		panic("the cached answer holds every entry")
	}
	cases := []struct {
		name   string
		t      int
		update func(cached []string) wire.Message
		// want is the answer served from the cache after the update; nil
		// says the update dropped the cached answer.
		want    func(cached []string) []string
		patched int64
	}{
		{
			name:   "add keeps",
			t:      3,
			update: func([]string) wire.Message { return wire.Add{Key: "k", Config: cfg, Entry: "new"} },
			want:   func(cached []string) []string { return cached },
		},
		{
			name: "AddBatch keeps",
			t:    3,
			update: func([]string) wire.Message {
				return wire.AddBatch{Items: []wire.Add{{Key: "k", Config: cfg, Entry: "new"}}}
			},
			want: func(cached []string) []string { return cached },
		},
		{
			name:    "delete of a held entry patches",
			t:       3,
			update:  func(cached []string) wire.Message { return wire.Delete{Key: "k", Config: cfg, Entry: cached[1]} },
			want:    func(cached []string) []string { return without(cached, cached[1]) },
			patched: 1,
		},
		{
			name:   "delete that leaves fewer than t drops",
			t:      4,
			update: func(cached []string) wire.Message { return wire.Delete{Key: "k", Config: cfg, Entry: cached[1]} },
		},
		{
			name:   "delete of an entry not held keeps",
			t:      3,
			update: func(cached []string) wire.Message { return wire.Delete{Key: "k", Config: cfg, Entry: notIn(cached)} },
			want:   func(cached []string) []string { return cached },
		},
		{
			name: "place drops",
			t:    3,
			update: func([]string) wire.Message {
				return wire.Place{Key: "k", Config: cfg, Entries: []string{"p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"}}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rig := newRig(t, time.Hour, 0)
			ctx := context.Background()
			if a := rig.p.Handle(ctx, wire.Place{Key: "k", Config: cfg, Entries: base}).(wire.Ack); a.Err != "" {
				t.Fatal(a.Err)
			}
			cached := lookup(t, rig.p, "k", tc.t).Entries
			if len(cached) != 4 || rig.p.CacheLen() != 1 {
				t.Fatalf("cached answer %v, cache len %d; want four entries in one answer", cached, rig.p.CacheLen())
			}
			before := slices.Clone(cached)

			msg := tc.update(cached)
			switch r := rig.p.Handle(ctx, msg).(type) {
			case wire.Ack:
				if r.Err != "" {
					t.Fatal(r.Err)
				}
			case wire.BatchAck:
				if r.Err != "" || r.Errs[0] != "" {
					t.Fatalf("%+v", r)
				}
			}
			if !slices.Equal(cached, before) {
				t.Fatalf("the reply handed out before the update changed: %v, was %v", cached, before)
			}

			kept := tc.want != nil
			if got := rig.p.CacheLen() == 1; got != kept {
				t.Fatalf("answer cached after the update: %v, want %v", got, kept)
			}
			if got := rig.m.Invalidations.Value() == 0; got != kept {
				t.Fatalf("invalidations = %d with the answer kept: %v", rig.m.Invalidations.Value(), kept)
			}
			if got := rig.m.AnswersPatched.Value(); got != tc.patched {
				t.Fatalf("answers patched = %d, want %d", got, tc.patched)
			}

			hits := rig.m.CacheHits.Value()
			after := lookup(t, rig.p, "k", tc.t)
			if after.Err != "" || len(after.Entries) < tc.t {
				t.Fatalf("lookup after the update: %+v", after)
			}
			if got := rig.m.CacheHits.Value() == hits+1; got != kept {
				t.Fatalf("lookup after the update hit the cache: %v, want %v", got, kept)
			}
			if kept {
				if want := tc.want(before); !slices.Equal(after.Entries, want) {
					t.Fatalf("cached answer after the update = %v, want %v", after.Entries, want)
				}
				return
			}
			switch u := msg.(type) {
			case wire.Delete:
				if slices.Contains(after.Entries, u.Entry) {
					t.Fatalf("lookup after the acked delete of %q = %v", u.Entry, after.Entries)
				}
			case wire.Place:
				if !slices.Contains(u.Entries, after.Entries[0]) {
					t.Fatalf("lookup after the place = %v, want the new entries", after.Entries)
				}
			}
		})
	}
}

// A thin answer — fewer than t entries, because the key held fewer — is
// cached like any other, which keeps a hot key that cannot satisfy its
// lookups off the cluster. It is also the one answer an add can make
// wrong: with the new entry the key may have its t.
func TestThinAnswerDoesNotSurviveAnAdd(t *testing.T) {
	rig := newRig(t, time.Hour, 0)
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.RandomServer, X: 4} // every server holds every entry
	if a := rig.p.Handle(ctx, wire.Place{Key: "k", Config: cfg, Entries: []string{"a"}}).(wire.Ack); a.Err != "" {
		t.Fatal(a.Err)
	}
	if got := lookup(t, rig.p, "k", 1).Entries; !slices.Equal(got, []string{"a"}) {
		t.Fatalf("lookup(k, 1) = %v", got)
	}
	if got := lookup(t, rig.p, "k", 2); got.Err != "" || !slices.Equal(got.Entries, []string{"a"}) {
		t.Fatalf("thin lookup(k, 2) = %+v", got)
	}
	lookup(t, rig.p, "k", 2)
	if rig.p.CacheLen() != 2 || rig.m.CacheHits.Value() != 1 {
		t.Fatalf("cache len %d, hits %d: the thin answer was not cached and served", rig.p.CacheLen(), rig.m.CacheHits.Value())
	}

	if a := rig.p.Handle(ctx, wire.Add{Key: "k", Config: cfg, Entry: "b"}).(wire.Ack); a.Err != "" {
		t.Fatal(a.Err)
	}
	if rig.p.CacheLen() != 1 || rig.m.Invalidations.Value() != 1 {
		t.Fatalf("cache len %d, invalidations %d: want the thin answer dropped and the satisfied one kept",
			rig.p.CacheLen(), rig.m.Invalidations.Value())
	}
	if got := lookup(t, rig.p, "k", 2).Entries; len(got) != 2 {
		t.Fatalf("lookup(k, 2) after the add = %v, want both entries", got)
	}
	if got := lookup(t, rig.p, "k", 1).Entries; !slices.Equal(got, []string{"a"}) || rig.m.CacheHits.Value() != 2 {
		t.Fatalf("lookup(k, 1) after the add = %v (hits %d), want the cached [a]", got, rig.m.CacheHits.Value())
	}
}

// A cached entries slice is shared with every reply it was served in,
// and those are encoded outside the proxy's lock: a delete has to
// install a new slice. Readers keep encoding replies while the delete
// lands, which is what puts a write to the old slice in front of the
// race detector.
func TestPatchedAnswerIsCopyOnWrite(t *testing.T) {
	rig := newRig(t, time.Hour, 0)
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 1}
	entries := []string{"e0", "e1", "e2", "e3", "e4", "e5", "e6", "e7"}
	if a := rig.p.Handle(ctx, wire.Place{Key: "k", Config: cfg, Entries: entries}).(wire.Ack); a.Err != "" {
		t.Fatal(a.Err)
	}
	held := lookup(t, rig.p, "k", 3)
	before := slices.Clone(held.Entries)
	if len(before) != 4 {
		t.Fatalf("cached answer %v, want four entries", before)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				wire.Encode(held)
				wire.Encode(rig.p.Handle(ctx, wire.Lookup{Key: "k", T: 3}))
			}
		}()
	}
	ack := rig.p.Handle(ctx, wire.Delete{Key: "k", Config: cfg, Entry: before[0]}).(wire.Ack)
	stop.Store(true)
	wg.Wait()
	if ack.Err != "" {
		t.Fatal(ack.Err)
	}

	if !slices.Equal(held.Entries, before) {
		t.Fatalf("reply obtained before the delete is now %v, was %v", held.Entries, before)
	}
	if got := lookup(t, rig.p, "k", 3).Entries; !slices.Equal(got, before[1:]) {
		t.Fatalf("cached answer after the delete = %v, want %v", got, before[1:])
	}
	if rig.m.AnswersPatched.Value() != 1 || rig.m.CacheMisses.Value() != 1 {
		t.Fatalf("patched %d, misses %d: want the one cold miss and the answer patched in place",
			rig.m.AnswersPatched.Value(), rig.m.CacheMisses.Value())
	}
}

// A miss caches the driver's answer itself, not a copy of it, and sends
// the same slice in the reply. A reply taken from Handle shares it by
// design (TestPatchedAnswerIsCopyOnWrite), so the receiver here is where
// plsproxy's are, across the transport: what it does to the reply it
// decoded must not reach the answer the next hit serves.
func TestOverwritingAMissReplyDoesNotChangeTheNextHit(t *testing.T) {
	rig := newRig(t, time.Hour, 0)
	place(t, rig.p, "k", "a", "b", "c")
	srv := transport.NewServer(rig.p)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client := transport.NewClient([]string{addr}, transport.WithTimeout(5*time.Second))
	defer client.Close()
	ask := func() []string {
		t.Helper()
		reply, err := client.Call(context.Background(), 0, wire.Lookup{Key: "k", T: 2})
		lr, ok := reply.(wire.LookupReply)
		if err != nil || !ok || lr.Err != "" || len(lr.Entries) < 2 {
			t.Fatalf("lookup: %#v, %v", reply, err)
		}
		return lr.Entries
	}

	miss := ask()
	want := slices.Clone(miss)
	for i := range miss {
		miss[i] = "overwritten"
	}
	if hit := ask(); !slices.Equal(hit, want) {
		t.Fatalf("hit served %v after the miss's receiver overwrote its reply, want %v", hit, want)
	}
	if rig.m.CacheMisses.Value() != 1 || rig.m.CacheHits.Value() != 1 {
		t.Fatalf("misses %d, hits %d: want one of each", rig.m.CacheMisses.Value(), rig.m.CacheHits.Value())
	}
}

// The stale-fill guard: an invalidation racing an in-flight lookup
// must keep that flight's answer out of the cache. Followers that
// joined before the update completed still get the pre-update answer
// (they asked first — that interleaving is linearizable); callers
// arriving after the invalidation start a fresh flight.
func TestInvalidationDetachesInFlightLookup(t *testing.T) {
	rig := newRig(t, time.Hour, 0)
	place(t, rig.p, "k", "a", "b", "c")

	gate := rig.gc.arm()
	flightDone := make(chan wire.LookupReply, 1)
	go func() { flightDone <- lookup(t, rig.p, "k", 2) }()

	// Wait for the leader to take off.
	deadline := time.Now().Add(5 * time.Second)
	for rig.m.Flights.Value() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("leader flight never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Invalidate while the flight is parked at the gate, then release.
	rig.p.InvalidateKey("k")
	_ = gate
	rig.gc.release()
	r := <-flightDone
	if r.Err != "" || len(r.Entries) < 2 {
		t.Fatalf("in-flight lookup reply %+v", r)
	}
	if got := rig.p.CacheLen(); got != 0 {
		t.Fatalf("stale flight filled the cache (%d entries) after an invalidation", got)
	}
	if rig.m.StaleFills.Value() != 1 {
		t.Fatalf("stale fills = %d, want 1", rig.m.StaleFills.Value())
	}
}

// Membership-epoch changes flush everything: cached answers were
// computed against the old placement. Re-broadcasts of an applied
// epoch are idempotent.
func TestMembershipEpochFlushesCache(t *testing.T) {
	rig := newRig(t, time.Hour, 0)
	var notified []uint64
	// Rebuild the proxy with a membership callback.
	rig.p = proxy.New(rig.p.Service(), proxy.Options{
		TTL:     time.Hour,
		Metrics: rig.m,
		OnMembership: func(m wire.MembershipUpdate) {
			notified = append(notified, m.Epoch)
		},
	})
	place(t, rig.p, "k1", "a", "b")
	place(t, rig.p, "k2", "c", "d")
	lookup(t, rig.p, "k1", 1)
	lookup(t, rig.p, "k2", 1)
	if rig.p.CacheLen() != 2 {
		t.Fatalf("cache len = %d, want 2", rig.p.CacheLen())
	}

	up := wire.MembershipUpdate{Epoch: 1, Leaving: -1, Addrs: []string{"h:1", "h:2", "h:3", "h:4"}}
	if a := rig.p.Handle(context.Background(), up).(wire.Ack); a.Err != "" {
		t.Fatal(a.Err)
	}
	if rig.p.CacheLen() != 0 {
		t.Fatal("cache survived a membership epoch change")
	}
	if rig.m.EpochFlushes.Value() != 1 {
		t.Fatalf("epoch flushes = %d, want 1", rig.m.EpochFlushes.Value())
	}
	if rig.p.MemberEpoch() != 1 {
		t.Fatalf("member epoch = %d, want 1", rig.p.MemberEpoch())
	}
	if len(notified) != 1 || notified[0] != 1 {
		t.Fatalf("membership callback saw %v", notified)
	}

	// Same epoch again: no second flush, no second callback.
	if a := rig.p.Handle(context.Background(), up).(wire.Ack); a.Err != "" {
		t.Fatal(a.Err)
	}
	if rig.m.EpochFlushes.Value() != 1 || len(notified) != 1 {
		t.Fatal("re-broadcast of an applied epoch was not idempotent")
	}
}

// fakeCoordinator stands in for the cluster's membership coordinator:
// Join and Leave commit and reply with the MembershipUpdate, at the
// epoch after the coordinator's own — which need not follow the
// proxy's.
type fakeCoordinator struct {
	mu    sync.Mutex
	n     int
	epoch uint64
}

func (f *fakeCoordinator) NumServers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func (f *fakeCoordinator) setN(n int) {
	f.mu.Lock()
	f.n = n
	f.mu.Unlock()
}

// Call never mutates n itself: the caller doubles as the proxy's
// backend-client view, which only changes when the owner's
// OnMembership callback re-points it (as cmd/plsproxy does).
func (f *fakeCoordinator) Call(_ context.Context, _ int, msg wire.Message) (wire.Message, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	switch m := msg.(type) {
	case wire.Join:
		f.epoch++
		return wire.MembershipUpdate{Epoch: f.epoch, Leaving: -1, Addrs: make([]string, f.n+1)}, nil
	case wire.Leave:
		f.epoch++
		return wire.MembershipUpdate{Epoch: f.epoch, Leaving: m.Server, Addrs: make([]string, f.n-1)}, nil
	}
	return wire.Ack{Err: "fakeCoordinator: unexpected kind"}, nil
}

// A membership operation routed through the proxy must update the
// proxy's own view: a forwarded Join or drain applies the coordinator's
// MembershipUpdate reply — its epoch, not the proxy's next one. Both
// flush the cache and fire the owner's callback.
func TestForwardedMaintenanceUpdatesProxyView(t *testing.T) {
	rig := newRig(t, time.Hour, 0)
	coord := &fakeCoordinator{n: 4}
	var notified []wire.MembershipUpdate
	rig.p = proxy.New(rig.p.Service(), proxy.Options{
		TTL:         time.Hour,
		Metrics:     rig.m,
		Maintenance: coord,
		OnMembership: func(m wire.MembershipUpdate) {
			notified = append(notified, m)
			coord.setN(len(m.Addrs))
		},
	})
	ctx := context.Background()
	place(t, rig.p, "k1", "a", "b")
	lookup(t, rig.p, "k1", 1)
	if rig.p.CacheLen() != 1 {
		t.Fatalf("cache len = %d, want 1", rig.p.CacheLen())
	}

	reply := rig.p.Handle(ctx, wire.Join{Addr: "127.0.0.1:7999"})
	if up, ok := reply.(wire.MembershipUpdate); !ok || len(up.Addrs) != 5 {
		t.Fatalf("join reply = %#v, want MembershipUpdate with 5 members", reply)
	}
	if rig.p.CacheLen() != 0 {
		t.Fatal("cache survived a forwarded join")
	}
	if rig.p.MemberEpoch() != 1 {
		t.Fatalf("member epoch = %d, want 1", rig.p.MemberEpoch())
	}
	if len(notified) != 1 || notified[0].Leaving != -1 {
		t.Fatalf("join callback saw %v", notified)
	}

	lookup(t, rig.p, "k1", 1) // re-warm the cache
	if rig.p.CacheLen() != 1 {
		t.Fatalf("cache len = %d, want 1", rig.p.CacheLen())
	}
	// The coordinator committed a change the proxy never saw: its drain
	// lands at epoch 3, not at the proxy's epoch + 1.
	coord.epoch++
	reply = rig.p.Handle(ctx, wire.Leave{Server: 2})
	if up, ok := reply.(wire.MembershipUpdate); !ok || up.Epoch != 3 {
		t.Fatalf("drain reply = %#v, want MembershipUpdate at epoch 3", reply)
	}
	if rig.p.CacheLen() != 0 {
		t.Fatal("cache survived a forwarded drain")
	}
	if rig.p.MemberEpoch() != 3 {
		t.Fatalf("member epoch = %d, want the coordinator's 3", rig.p.MemberEpoch())
	}
	if len(notified) != 2 || notified[1].Leaving != 2 || len(notified[1].Addrs) != 4 {
		t.Fatalf("drain callback saw %v", notified)
	}
	if rig.m.EpochFlushes.Value() != 2 {
		t.Fatalf("epoch flushes = %d, want 2", rig.m.EpochFlushes.Value())
	}
}

// Cold-path byte-identity: a seeded workload answered through a
// cold-cache proxy must be byte-identical to the same workload
// answered by a directly-driven, identically-seeded service. The proxy
// delegates every miss to core.Service without consuming extra
// randomness, so first-touch answers cannot drift.
func TestColdPathByteIdentity(t *testing.T) {
	schemes := []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 3},
		{Scheme: wire.RandomServer, X: 2},
		{Scheme: wire.RoundRobin, Y: 1},
		{Scheme: wire.Hash, Y: 2},
		{Scheme: wire.KeyPartition},
		{Scheme: wire.MultiProbe, Y: 2},
	}
	for _, cfg := range schemes {
		t.Run(cfg.Scheme.String(), func(t *testing.T) {
			direct := newSeededService(t, cfg)
			proxySvc := newSeededService(t, cfg)
			// TTL=0 disables the cache so EVERY lookup takes the cold
			// path; with a TTL only first-touch lookups would compare.
			p := proxy.New(proxySvc, proxy.Options{TTL: 0})

			ctx := context.Background()
			for i := 0; i < 8; i++ {
				key := fmt.Sprintf("key-%d", i)
				entries := make([]string, 6)
				for j := range entries {
					entries[j] = fmt.Sprintf("v%d-%d", i, j)
				}
				if err := direct.Place(ctx, key, entries); err != nil {
					t.Fatal(err)
				}
				ack := p.Handle(ctx, wire.Place{Key: key, Config: cfg, Entries: entries})
				if a := ack.(wire.Ack); a.Err != "" {
					t.Fatal(a.Err)
				}
			}
			for round := 0; round < 3; round++ {
				for i := 0; i < 8; i++ {
					key := fmt.Sprintf("key-%d", i)
					want, err := direct.PartialLookup(ctx, key, 3)
					if err != nil {
						t.Fatal(err)
					}
					got := p.Handle(ctx, wire.Lookup{Key: key, T: 3}).(wire.LookupReply)
					if got.Err != "" {
						t.Fatal(got.Err)
					}
					if !reflect.DeepEqual(got.Entries, want.Entries) {
						t.Fatalf("round %d key %s: proxy %v != direct %v", round, key, got.Entries, want.Entries)
					}
				}
			}
		})
	}
}

// Batched lookups through the proxy: hits, misses, and within-batch
// duplicates resolve to the same answers a direct batched service
// call produces.
func TestLookupBatchThroughProxy(t *testing.T) {
	rig := newRig(t, time.Hour, 0)
	keys := []string{"b0", "b1", "b2"}
	for _, k := range keys {
		place(t, rig.p, k, k+"-a", k+"-b", k+"-c")
	}
	// Warm b1 only.
	lookup(t, rig.p, "b1", 2)
	hitsBefore := rig.m.CacheHits.Value()

	items := []wire.Lookup{
		{Key: "b0", T: 2},
		{Key: "b1", T: 2}, // cache hit
		{Key: "b2", T: 2},
		{Key: "b0", T: 2}, // duplicate within the batch: coalesces
	}
	reply := rig.p.Handle(context.Background(), wire.LookupBatch{Items: items})
	lbr, ok := reply.(wire.LookupBatchReply)
	if !ok || lbr.Err != "" {
		t.Fatalf("batch reply %T %+v", reply, reply)
	}
	if len(lbr.Replies) != len(items) {
		t.Fatalf("got %d replies for %d items", len(lbr.Replies), len(items))
	}
	for i, r := range lbr.Replies {
		if r.Err != "" || len(r.Entries) < 2 {
			t.Fatalf("item %d reply %+v", i, r)
		}
	}
	if !reflect.DeepEqual(lbr.Replies[0].Entries, lbr.Replies[3].Entries) {
		t.Fatal("within-batch duplicate items diverged")
	}
	if rig.m.CacheHits.Value() != hitsBefore+1 {
		t.Fatalf("cache hits = %d, want %d (b1 only)", rig.m.CacheHits.Value(), hitsBefore+1)
	}
	if rig.m.Coalesced.Value() != 1 {
		t.Fatalf("coalesced = %d, want 1 (the duplicate b0)", rig.m.Coalesced.Value())
	}
}

// The LRU bound holds: at most CacheEntries answers are retained, the
// oldest evicted first.
func TestCacheLRUBound(t *testing.T) {
	rig := newRig(t, time.Hour, 3)
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		place(t, rig.p, key, "a", "b")
		lookup(t, rig.p, key, 1)
	}
	if got := rig.p.CacheLen(); got != 3 {
		t.Fatalf("cache len = %d, want 3", got)
	}
	// k0 and k1 were evicted: looking them up again is a miss.
	missesBefore := rig.m.CacheMisses.Value()
	lookup(t, rig.p, "k0", 1)
	if rig.m.CacheMisses.Value() != missesBefore+1 {
		t.Fatal("evicted key did not miss")
	}
	// k4 survived.
	hitsBefore := rig.m.CacheHits.Value()
	lookup(t, rig.p, "k4", 1)
	if rig.m.CacheHits.Value() != hitsBefore+1 {
		t.Fatal("fresh key did not hit")
	}
}

// Unsupported and maintenance messages answer with typed errors, and
// ping answers.
func TestHandleEdges(t *testing.T) {
	rig := newRig(t, time.Hour, 0)
	ctx := context.Background()
	if a := rig.p.Handle(ctx, wire.Ping{}).(wire.Ack); a.Err != "" {
		t.Fatal(a.Err)
	}
	if a := rig.p.Handle(ctx, wire.Join{Addr: "x"}).(wire.Ack); a.Err == "" {
		t.Fatal("join with no maintenance backend should error")
	}
	if d := rig.p.Handle(ctx, wire.Dump{Key: "k"}).(wire.DumpReply); d.Err == "" {
		t.Fatal("dump should be rejected")
	}
	if a := rig.p.Handle(ctx, wire.RepairQuery{}).(wire.Ack); a.Err == "" {
		t.Fatal("unsupported kind should error")
	}
}

func newSeededService(t *testing.T, cfg wire.Config) *core.Service {
	t.Helper()
	cl := cluster.New(4, stats.NewRNG(7))
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(11),
		core.WithDefaultConfig(cfg),
	)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// TestMissDoesNotDelayHitOnTheSameConn: behind transport.Server a cache
// hit is answered on the connection's reader, and a miss — which leads
// a flight through the backend — detaches first, so a miss held open by
// a blocked backend does not delay a hit sent behind it on the same
// connection. A follower of that flight detaches too.
func TestMissDoesNotDelayHitOnTheSameConn(t *testing.T) {
	rig := newRig(t, time.Minute, 0)
	place(t, rig.p, "hot", "a", "b", "c")
	place(t, rig.p, "cold", "x", "y", "z")
	lookup(t, rig.p, "hot", 2) // fill the cache

	sm := telemetry.NewServerMetrics(telemetry.NewRegistry(), "server")
	srv := transport.NewServer(rig.p)
	srv.Instrument(sm)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client := transport.NewClient([]string{addr}, transport.WithTimeout(5*time.Second))
	defer client.Close()

	rig.gc.arm()
	defer rig.gc.release()
	misses := make(chan error, 2)
	for i := 0; i < 2; i++ { // a leader and its follower
		go func() {
			reply, err := client.Call(context.Background(), 0, wire.Lookup{Key: "cold", T: 2})
			if lr, ok := reply.(wire.LookupReply); err == nil && (!ok || lr.Err != "" || len(lr.Entries) < 2) {
				err = fmt.Errorf("miss answered %#v", reply)
			}
			misses <- err
		}()
	}
	// Both misses are inside the proxy: one leading, one coalesced.
	for deadline := time.Now().Add(5 * time.Second); rig.m.Coalesced.Value() < 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the second miss never joined the first one's flight")
		}
	}

	reply, err := client.Call(context.Background(), 0, wire.Lookup{Key: "hot", T: 2})
	if lr, ok := reply.(wire.LookupReply); err != nil || !ok || len(lr.Entries) < 2 {
		t.Fatalf("hit behind a held miss: %#v, %v", reply, err)
	}
	if sm.Inline.Value() != 1 || sm.Detached.Value() != 0 {
		t.Fatalf("inline %d detached %d after the hit alone returned, want 1 and 0", sm.Inline.Value(), sm.Detached.Value())
	}

	rig.gc.release()
	for i := 0; i < 2; i++ {
		if err := <-misses; err != nil {
			t.Errorf("held miss: %v", err)
		}
	}
	if sm.Detached.Value() != 2 {
		t.Errorf("detached %d, want the leader and the follower", sm.Detached.Value())
	}
}
