package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/topo"
	"repro/internal/wire"
)

// zoneChaosPair builds an 8-server chaos layer over a 2x2x2 topology
// (one server per rack: server i lives in rack i, racks 0..3 under
// region r0, racks 4..7 under r1).
func zoneChaosPair(t *testing.T, seed uint64) (*Chaos, *topo.Topology) {
	t.Helper()
	ch, _ := newChaosPair(t, 8, seed)
	tp, err := topo.Parse("2x2x2", 8)
	if err != nil {
		t.Fatal(err)
	}
	ch.SetTopology(tp)
	return ch, tp
}

// TestChaosZonePartitionSeversExactlyBoundary partitions region r0 and
// checks every (origin, target) pair: a call fails if and only if
// exactly one endpoint is inside the zone — members lose outside
// traffic but keep talking to each other, and the rest of the network
// is untouched. The client counts as a member via its configured zone.
func TestChaosZonePartitionSeversExactlyBoundary(t *testing.T) {
	ch, tp := zoneChaosPair(t, 31)
	ctx := context.Background()
	ch.SetClientZone(tp.ZoneOf(0)) // client sits in r0
	ch.PartitionZone("r0")
	if !ch.ZonePartitioned("r0") {
		t.Fatal("ZonePartitioned(r0) = false after PartitionZone")
	}

	inZone := func(origin int) bool {
		if origin == ClientOrigin {
			return true // client zone r0/d0/k0 is within r0
		}
		return tp.InZone(origin, "r0")
	}
	callers := map[int]Caller{ClientOrigin: ch}
	for i := 0; i < 8; i++ {
		callers[i] = ch.Origin(i)
	}
	for origin, caller := range callers {
		for target := 0; target < 8; target++ {
			_, err := caller.Call(ctx, target, wire.Ping{})
			severed := inZone(origin) != tp.InZone(target, "r0")
			if severed && !errors.Is(err, ErrInjected) {
				t.Fatalf("%d->%d crosses the r0 boundary: err = %v, want ErrInjected match", origin, target, err)
			}
			if severed && !errors.Is(err, ErrServerDown) {
				t.Fatalf("%d->%d: severed call must also match ErrServerDown so drivers fail over (got %v)", origin, target, err)
			}
			if !severed && err != nil {
				t.Fatalf("%d->%d stays on one side of r0: %v", origin, target, err)
			}
		}
	}

	// Severed attempts never traversed a link, so the hop counters only
	// saw the delivered calls: 9 origins x 8 targets minus the severed
	// pairs. Client + 4 members inside, 4 servers outside: severed =
	// 5*4 (inside->out) + 4*4 (outside->in) = 36 of 72 calls.
	var counted uint64
	for _, c := range ch.ZoneCalls() {
		counted += c
	}
	if counted != 36 {
		t.Fatalf("ZoneCalls counted %d delivered calls, want 36 (severed calls must not count)", counted)
	}

	ch.HealZone("r0")
	for origin, caller := range callers {
		for target := 0; target < 8; target++ {
			if _, err := caller.Call(ctx, target, wire.Ping{}); err != nil {
				t.Fatalf("after HealZone, %d->%d: %v", origin, target, err)
			}
		}
	}
}

// TestChaosZoneLatencyProfile attaches a latency ladder and checks a
// cross-region call pays its tier while a same-rack call stays free,
// with both landing in the right hop counter.
func TestChaosZoneLatencyProfile(t *testing.T) {
	ch, tp := zoneChaosPair(t, 32)
	ctx := context.Background()
	tp.SetProfile(topo.Profile{
		topo.DistCrossRegion: {Base: 40 * time.Millisecond},
	})
	ch.SetClientZone(tp.ZoneOf(0))

	clock := ch.Clock()
	start := clock.Now()
	if _, err := ch.Call(ctx, 0, wire.Ping{}); err != nil { // same rack
		t.Fatal(err)
	}
	if elapsed := clock.Now().Sub(start); elapsed != 0 {
		t.Fatalf("same-rack call took %v, want no injected link latency", elapsed)
	}
	start = clock.Now()
	if _, err := ch.Call(ctx, 4, wire.Ping{}); err != nil { // server 4 lives in r1
		t.Fatal(err)
	}
	if elapsed := clock.Now().Sub(start); elapsed != 40*time.Millisecond {
		t.Fatalf("cross-region call took %v, want the 40ms link latency", elapsed)
	}
	calls := ch.ZoneCalls()
	if calls[topo.DistSameRack] != 1 || calls[topo.DistCrossRegion] != 1 {
		t.Fatalf("hop counters = %v, want one same-rack and one cross-region call", calls)
	}
}

// TestChaosZoneZeroProfileConsumesNoRandomness pins the cold-path
// determinism contract: attaching a topology with a zero latency
// profile draws nothing from the RNG, so the fault schedule — and any
// seeded simulation above it — is byte-identical with and without the
// zone layer.
func TestChaosZoneZeroProfileConsumesNoRandomness(t *testing.T) {
	const calls = 200
	pattern := func(withTopo bool) []bool {
		ch, _ := newChaosPair(t, 8, 77)
		if withTopo {
			tp, err := topo.Parse("2x2x2", 8)
			if err != nil {
				t.Fatal(err)
			}
			ch.SetTopology(tp)
			ch.SetClientZone(tp.ZoneOf(0))
		}
		ch.SetDropRate(3, 0.4)
		out := make([]bool, calls)
		for i := range out {
			_, err := ch.Call(context.Background(), 3, wire.Ping{})
			out[i] = err != nil
		}
		return out
	}
	plain, zoned := pattern(false), pattern(true)
	for i := range plain {
		if plain[i] != zoned[i] {
			t.Fatalf("call %d: attaching a zero-profile topology shifted the seeded fault schedule", i)
		}
	}
}
