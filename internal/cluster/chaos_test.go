package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestClusterPeerPartition cuts the link between two servers and checks
// that each node's own view of the network honors the cut in both
// directions while third parties stay connected.
func TestClusterPeerPartition(t *testing.T) {
	cl := cluster.New(3, stats.NewRNG(22))
	ctx := context.Background()
	cl.Chaos().Partition(0, 1)

	from0 := cl.Member(0).Peers
	from2 := cl.Member(2).Peers
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
	clock := cl.Chaos().Clock()
	for call, want := range []time.Duration{30 * time.Millisecond, 30 * time.Millisecond, 0} {
		start := clock.Now()
		if _, err := cl.Caller().Call(ctx, 0, wire.Ping{}); err != nil {
			t.Fatalf("call %d after restart: %v", call, err)
		}
		if elapsed := clock.Now().Sub(start); elapsed != want {
			t.Fatalf("call %d took %v, want %v: two slow-start calls, then none", call, elapsed, want)
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

// TestDrainWindowPartitionFollowsAddresses commits a drain on every
// member without compacting the network, the window in which survivors
// have compacted their views and renumbered themselves while the
// network still has the pre-drain slots. A partition between network
// slots a and b must then sever exactly the calls between the servers
// at those slots: a full-replication place through the server at a
// reaches every member its view holds but the one at b.
func TestDrainWindowPartitionFollowsAddresses(t *testing.T) {
	const n, leaving = 5, 1
	for name, cl := range arms(t, n, 24) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			addrs := cl.Addrs()
			u := wire.MembershipUpdate{Epoch: 1, Leaving: leaving, Addrs: slices.Delete(slices.Clone(addrs), leaving, leaving+1)}
			for _, s := range []int{leaving, 0, 2, 3, 4} { // a coordinator's order
				reply, err := cl.Caller().Call(ctx, s, u)
				if err == nil {
					err = node.MembershipAckErr(reply)
				}
				if err != nil {
					t.Fatalf("member %d: %v", s, err)
				}
			}
			cfg := wire.Config{Scheme: wire.FullReplication}
			for a := 0; a < n; a++ {
				for b := 0; b < n; b++ {
					if a == leaving || b == leaving || a == b {
						continue
					}
					key := fmt.Sprintf("k%d-%d", a, b)
					cl.Chaos().Partition(a, b)
					cl.Caller().Call(ctx, a, wire.Place{Key: key, Config: cfg, Entries: []string{"v"}})
					cl.Chaos().Heal(a, b)
					for s := 0; s < n; s++ {
						if got, want := cl.Node(s).LocalSet(key).Len() == 1, s != leaving && s != b; got != want {
							t.Errorf("partition %d-%d: the server at slot %d holds the key: %v, want %v", a, b, s, got, want)
						}
					}
				}
			}
		})
	}
}
