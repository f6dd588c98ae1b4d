package cluster_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestClusterPeerPartition cuts the link between two servers and checks
// that each node's origin-aware view of the transport honors the cut in
// both directions while third parties stay connected.
func TestClusterPeerPartition(t *testing.T) {
	cl := cluster.New(3, stats.NewRNG(22))
	ctx := context.Background()
	cl.Chaos().Partition(0, 1)

	from0 := cl.Chaos().Origin(0)
	from2 := cl.Chaos().Origin(2)
	if _, err := from0.Call(ctx, 1, wire.Ping{}); !errors.Is(err, transport.ErrInjected) {
		t.Fatalf("0->1 should be cut: %v", err)
	}
	if _, err := from2.Call(ctx, 1, wire.Ping{}); err != nil {
		t.Fatalf("2->1 should be open: %v", err)
	}
	if _, err := cl.Caller().Call(ctx, 1, wire.Ping{}); err != nil {
		t.Fatalf("client->1 should be open: %v", err)
	}
	cl.Chaos().HealAll()
	if _, err := from0.Call(ctx, 1, wire.Ping{}); err != nil {
		t.Fatalf("after HealAll: %v", err)
	}
}

// TestClusterRestartSlowStart kills a server and brings it back with a
// slow-start penalty: the first calls after the restart pay extra
// latency, then the node returns to full speed.
func TestClusterRestartSlowStart(t *testing.T) {
	cl := cluster.New(2, stats.NewRNG(23))
	ctx := context.Background()

	cl.Fail(0)
	if _, err := cl.Caller().Call(ctx, 0, wire.Ping{}); !errors.Is(err, transport.ErrServerDown) {
		t.Fatalf("failed server: err = %v", err)
	}

	cl.Restart(0, 2, 30*time.Millisecond)
	if !cl.Alive(0) {
		t.Fatal("Restart did not revive the node")
	}
	for call := 0; call < 3; call++ {
		start := time.Now()
		if _, err := cl.Caller().Call(ctx, 0, wire.Ping{}); err != nil {
			t.Fatalf("call %d after restart: %v", call, err)
		}
		elapsed := time.Since(start)
		if call < 2 && elapsed < 25*time.Millisecond {
			t.Fatalf("call %d finished in %v, want slow-start penalty", call, elapsed)
		}
		if call == 2 && elapsed > 20*time.Millisecond {
			t.Fatalf("call %d took %v, slow-start did not expire", call, elapsed)
		}
	}
}

// TestClusterChaosDeterministic pins that a faulted cluster is a pure
// function of its seed: the same seed yields the same drop pattern, and
// golden seeds used elsewhere stay valid because a fault-free chaos
// layer consumes no randomness.
func TestClusterChaosDeterministic(t *testing.T) {
	trace := func(seed uint64) []bool {
		cl := cluster.New(2, stats.NewRNG(seed))
		cl.Chaos().SetDropRate(0, 0.4)
		out := make([]bool, 100)
		for i := range out {
			_, err := cl.Caller().Call(context.Background(), 0, wire.Ping{})
			out[i] = err != nil
		}
		return out
	}
	a, b := trace(9), trace(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: equally seeded clusters diverged", i)
		}
	}
}
