package main

import (
	"context"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// startNodes serves n lookup servers on loopback TCP, attached to each
// other as a plsd cluster is, and returns their addresses.
func startNodes(t *testing.T, n int) []string {
	t.Helper()
	nodes := make([]*node.Node, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = node.New(i, stats.NewRNG(uint64(i)+1))
		srv := transport.NewServer(nodes[i])
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
	}
	for _, nd := range nodes {
		peers := transport.NewClient(addrs, transport.WithTimeout(5*time.Second))
		t.Cleanup(func() { peers.Close() })
		nd.Attach(peers)
	}
	return addrs
}

// The binary's wiring must leave the cache to the proxy's own update
// path: an add through it costs a cached answer nothing, and a delete
// of an entry the answer holds patches it. (A per-key hook on the
// service, which plsproxy once installed, flushed the key on both.)
func TestAddThroughTheWiredProxyKeepsCachedAnswers(t *testing.T) {
	reg := telemetry.NewRegistry()
	px, client, err := newProxy(reg, startNodes(t, 3), frontOptions{
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
