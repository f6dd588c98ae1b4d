package cluster_test

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestClusterTelemetry drives the wire protocol through an instrumented
// cluster and checks the node op counters, live entry gauges, and
// chaos-visible transport errors all land in one registry snapshot.
func TestClusterTelemetry(t *testing.T) {
	cl := cluster.New(3, stats.NewRNG(11))
	reg := telemetry.NewRegistry()
	tm := cl.EnableTelemetry(reg)
	if again := cl.EnableTelemetry(reg); again != tm {
		t.Fatal("EnableTelemetry must be idempotent")
	}
	ctx := context.Background()
	fullCfg := wire.Config{Scheme: wire.FullReplication}

	placeFull(t, cl, 5)
	if _, err := cl.Caller().Call(ctx, 2, wire.Add{Key: "k", Config: fullCfg, Entry: "extra"}); err != nil {
		t.Fatalf("add: %v", err)
	}
	if _, err := cl.Caller().Call(ctx, 1, wire.Lookup{Key: "k", T: 3}); err != nil {
		t.Fatalf("lookup: %v", err)
	}

	snap := reg.Snapshot()

	// Client-facing ops count on the server that handled them; the
	// server-to-server fan-out (StoreBatch etc.) is not a client op.
	if got := snap.PerServer["node.place"]; got[0] != 1 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("node.place = %v, want [1 0 0]", got)
	}
	if got := snap.PerServer["node.add"]; got[2] != 1 {
		t.Fatalf("node.add = %v, want add on server 2", got)
	}
	if got := snap.PerServer["node.lookup"]; got[1] != 1 {
		t.Fatalf("node.lookup = %v, want lookup on server 1", got)
	}

	// Entry gauges mirror live storage: their sum is the paper's
	// storage-cost metric, their spread the load-skew input.
	entries := snap.PerServer["node.entries"]
	var sum int64
	for _, v := range entries {
		sum += v
	}
	if want := int64(cl.TotalStorage("k")); sum != want {
		t.Fatalf("node.entries sum = %d, want TotalStorage %d", sum, want)
	}
	for i, v := range entries {
		if v != 6 { // 5 placed + 1 added, fully replicated
			t.Fatalf("node.entries[%d] = %d, want 6", i, v)
		}
	}
	if got := snap.PerServer["node.keys"]; got[0] != 1 {
		t.Fatalf("node.keys = %v, want 1 key per server", got)
	}
	if telemetry.Skew(entries) != 0 {
		t.Fatalf("full replication skew = %v, want 0", telemetry.Skew(entries))
	}

	// A chaos-injected drop shows up as a per-server transport error in
	// the next snapshot.
	cl.Chaos().SetDropRate(1, 1)
	if _, err := cl.Caller().Call(ctx, 1, wire.Ping{}); !errors.Is(err, transport.ErrServerDown) {
		t.Fatalf("dropped call err = %v, want ErrServerDown", err)
	}
	snap = reg.Snapshot()
	if got := snap.PerServer["transport.errors"]; got[1] != 1 {
		t.Fatalf("transport.errors = %v, want the injected drop on server 1", got)
	}
	if got := tm.Errors.At(1).Value(); got != 1 {
		t.Fatalf("tm.Errors[1] = %d, want 1", got)
	}
	calls := snap.PerServer["transport.calls"]
	if calls[1] == 0 {
		t.Fatalf("transport.calls = %v, want traffic on server 1", calls)
	}
}

// The per-server entry and key gauges report the current members: a
// joiner appears in them, and a drained server leaves them.
func TestEntryGaugesFollowMembership(t *testing.T) {
	cl := cluster.New(3, stats.NewRNG(11))
	reg := telemetry.NewRegistry()
	cl.EnableTelemetry(reg)
	ctx := context.Background()
	placeFull(t, cl, 5)
	lens := func() (int, int) {
		per := reg.Snapshot().PerServer
		return len(per["node.entries"]), len(per["node.keys"])
	}
	if _, err := cl.Join(ctx, stats.NewRNG(12)); err != nil {
		t.Fatalf("join: %v", err)
	}
	if e, k := lens(); e != 4 || k != 4 {
		t.Fatalf("after a join: %d entry and %d key gauges, want 4 each", e, k)
	}
	if _, err := cl.Drain(ctx, 0); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if e, k := lens(); e != 3 || k != 3 {
		t.Fatalf("after a drain: %d entry and %d key gauges, want 3 each", e, k)
	}
}
