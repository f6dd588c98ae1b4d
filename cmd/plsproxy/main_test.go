package main

import (
	"context"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The binary's wiring must leave the cache to the proxy's own update
// path: an add through it costs a cached answer nothing, and a delete
// of an entry the answer holds patches it. (A per-key hook on the
// service, which plsproxy once installed, flushed the key on both.)
func TestAddThroughTheWiredProxyKeepsCachedAnswers(t *testing.T) {
	cl, err := cluster.NewWired(3, stats.NewRNG(1), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	reg := telemetry.NewRegistry()
	px, client, err := newProxy(reg, cl.Addrs(), frontOptions{
		cfg:          core.Config{Scheme: core.RoundRobin, Y: 1},
		seed:         1,
		cacheEntries: 16,
		cacheTTL:     time.Hour,
		timeout:      5 * time.Second,
		retries:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	ok := func(reply wire.Message) {
		t.Helper()
		if a, isAck := reply.(wire.Ack); !isAck || a.Err != "" {
			t.Fatalf("reply %#v", reply)
		}
	}

	// Six entries, two per server: a lookup for 3 caches four of them.
	ok(px.Handle(ctx, wire.Place{Key: "k", Entries: []string{"a", "b", "c", "d", "e", "f"}}))
	cached := px.Handle(ctx, wire.Lookup{Key: "k", T: 3}).(wire.LookupReply)
	if cached.Err != "" || len(cached.Entries) != 4 {
		t.Fatalf("lookup = %+v, want four entries", cached)
	}
	if got := reg.Snapshot().Gauges["proxy.cache_entries"]; got != 1 {
		t.Fatalf("proxy.cache_entries = %d, want 1", got)
	}

	ok(px.Handle(ctx, wire.Add{Key: "k", Entry: "g"}))
	after := reg.Snapshot()
	if after.Gauges["proxy.cache_entries"] != 1 || after.Counters["proxy.invalidations"] != 0 {
		t.Fatalf("after an add: proxy.cache_entries %d, proxy.invalidations %d; want the answer kept",
			after.Gauges["proxy.cache_entries"], after.Counters["proxy.invalidations"])
	}

	ok(px.Handle(ctx, wire.Delete{Key: "k", Entry: cached.Entries[0]}))
	after = reg.Snapshot()
	if after.Gauges["proxy.cache_entries"] != 1 || after.Counters["proxy.answers_patched"] != 1 || after.Counters["proxy.invalidations"] != 0 {
		t.Fatalf("after a delete: proxy.cache_entries %d, proxy.answers_patched %d, proxy.invalidations %d; want the answer patched",
			after.Gauges["proxy.cache_entries"], after.Counters["proxy.answers_patched"], after.Counters["proxy.invalidations"])
	}
}

// A committed join and drain reach the proxy's backend client through
// the view step a member takes: the client follows the member list, and
// lookups through the proxy keep reaching the renumbered servers.
func TestProxyFollowsJoinAndDrain(t *testing.T) {
	cl, err := cluster.NewWired(3, stats.NewRNG(2), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	px, client, err := newProxy(telemetry.NewRegistry(), cl.Addrs(), frontOptions{
		cfg:     core.Config{Scheme: core.FullReplication},
		seed:    1,
		timeout: 5 * time.Second,
		retries: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	if a, _ := px.Handle(ctx, wire.Place{Key: "k", Entries: []string{"a", "b"}}).(wire.Ack); a.Err != "" {
		t.Fatalf("place: %s", a.Err)
	}
	for _, change := range []func() (wire.MembershipUpdate, error){
		func() (wire.MembershipUpdate, error) {
			_, err := cl.Join(ctx, stats.NewRNG(3))
			return wire.MembershipUpdate{Epoch: 1, Leaving: -1, Addrs: cl.Addrs()}, err
		},
		func() (wire.MembershipUpdate, error) {
			_, err := cl.Drain(ctx, 0)
			return wire.MembershipUpdate{Epoch: 2, Leaving: 0, Addrs: cl.Addrs()}, err
		},
	} {
		m, err := change()
		if err != nil {
			t.Fatal(err)
		}
		if a, _ := px.Handle(ctx, m).(wire.Ack); a.Err != "" {
			t.Fatalf("epoch %d: %s", m.Epoch, a.Err)
		}
		if got := client.Addrs(); !slices.Equal(got, cl.Addrs()) {
			t.Fatalf("epoch %d: backend client at %v, want %v", m.Epoch, got, cl.Addrs())
		}
		got := px.Handle(ctx, wire.Lookup{Key: "k", T: 2}).(wire.LookupReply)
		if got.Err != "" || len(got.Entries) != 2 {
			t.Fatalf("epoch %d: lookup = %+v, want both entries", m.Epoch, got)
		}
	}
}
