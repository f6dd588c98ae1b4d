package experiments

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/wire"
)

func TestGraphBasics(t *testing.T) {
	g := newGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // idempotent
	g.AddEdge(2, 2) // self-loop ignored
	g.AddEdge(-1, 3)
	if got := len(g.Neighbors(1)); got != 2 {
		t.Fatalf("node 1 has %d neighbors, want 2", got)
	}
	dist := g.Hops(0)
	want := []int{0, 1, 2, -1}
	for i := range want {
		if dist[i] != want[i] {
			t.Fatalf("Hops(0) = %v, want %v", dist, want)
		}
	}
	within := g.WithinHops(0, 1)
	if len(within) != 2 {
		t.Fatalf("WithinHops(0,1) = %v, want [0 1]", within)
	}
}

func TestRingConnectivityAndDiameter(t *testing.T) {
	rng := stats.NewRNG(1)
	g := newRing(20, 0, rng)
	dist := g.Hops(0)
	for p, h := range dist {
		if h < 0 {
			t.Fatalf("ring disconnected at %d", p)
		}
		// Ring distance is min(p, 20-p).
		want := p
		if 20-p < want {
			want = 20 - p
		}
		if h != want {
			t.Fatalf("Hops(0)[%d] = %d, want %d", p, h, want)
		}
	}
	// Shortcuts only shrink distances.
	g2 := newRing(20, 15, stats.NewRNG(2))
	d2 := g2.Hops(0)
	for p := range d2 {
		if d2[p] > dist[p] {
			t.Fatalf("shortcut increased distance at %d: %d > %d", p, d2[p], dist[p])
		}
	}
}

func TestRandomGraphConnected(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		g := newRandom(50, 10, stats.NewRNG(seed))
		for p, h := range g.Hops(0) {
			if h < 0 {
				t.Fatalf("seed %d: participant %d unreachable", seed, p)
			}
		}
	}
}

func TestCoveredAndUncovered(t *testing.T) {
	g := newRing(10, 0, stats.NewRNG(1))
	// One server at 0 with d=2 covers {8,9,0,1,2}.
	covered := g.Covered([]int{0}, 2)
	wantCovered := map[int]bool{8: true, 9: true, 0: true, 1: true, 2: true}
	for p, got := range covered {
		if got != wantCovered[p] {
			t.Fatalf("Covered[%d] = %v, want %v", p, got, wantCovered[p])
		}
	}
	un := g.Uncovered([]int{0}, 2)
	if len(un) != 5 {
		t.Fatalf("Uncovered = %v, want 5 participants", un)
	}
}

func TestGreedyPlacementCoversEveryone(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		g := newRandom(60, 20, stats.NewRNG(seed))
		for _, d := range []int{1, 2, 3} {
			servers := greedyPlacement(g, d)
			if len(servers) == 0 {
				t.Fatalf("no servers placed for d=%d", d)
			}
			if un := g.Uncovered(servers, d); len(un) != 0 {
				t.Fatalf("d=%d: %d uncovered participants %v", d, len(un), un)
			}
		}
		// Larger d needs no more servers than smaller d (greedy is a
		// heuristic, but on these graphs monotonicity holds broadly).
		s1 := len(greedyPlacement(g, 1))
		s3 := len(greedyPlacement(g, 3))
		if s3 > s1 {
			t.Fatalf("d=3 needed %d servers, d=1 needed %d", s3, s1)
		}
	}
}

func TestGreedyPlacementRingExact(t *testing.T) {
	// On a plain 12-ring with d=1, each server covers 3 nodes: the
	// greedy solution needs exactly 4 servers.
	g := newRing(12, 0, stats.NewRNG(1))
	servers := greedyPlacement(g, 1)
	if len(servers) != 4 {
		t.Fatalf("ring d=1 placement = %v (%d servers), want 4", servers, len(servers))
	}
}

func TestMeanServerDistance(t *testing.T) {
	g := newRing(8, 0, stats.NewRNG(1))
	// Servers at 0 and 4: distances are 0,1,2,1,0,1,2,1 → mean 1.
	mean, err := meanServerDistance(g, []int{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if mean != 1 {
		t.Fatalf("mean distance = %v, want 1", mean)
	}
	if _, err := meanServerDistance(g, nil); err == nil {
		t.Fatal("no servers accepted")
	}
}

func TestRestrictedCallerEnforcesHopLimit(t *testing.T) {
	// 10 participants on a ring; servers 0..3 hosted at participants
	// 0, 2, 5, 8. A client at participant 1 with d=1 reaches servers
	// at participants 0 and 2 only.
	rng := stats.NewRNG(3)
	g := newRing(10, 0, rng.Split())
	cl := cluster.New(4, rng.Split())
	serverNodes := []int{0, 2, 5, 8}

	rc, err := restrict(cl.Caller(), g, 1, serverNodes, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rc.NumServers() != 4 {
		t.Fatalf("NumServers = %d", rc.NumServers())
	}
	if rc.ReachableCount() != 2 || !rc.Reachable(0) || !rc.Reachable(1) || rc.Reachable(2) {
		t.Fatalf("reachability wrong: count=%d", rc.ReachableCount())
	}
	ctx := context.Background()
	if _, err := rc.Call(ctx, 0, wire.Ping{}); err != nil {
		t.Fatalf("reachable call failed: %v", err)
	}
	_, err = rc.Call(ctx, 2, wire.Ping{})
	if !errors.Is(err, transport.ErrServerDown) {
		t.Fatalf("unreachable call = %v, want ErrServerDown", err)
	}
}

func TestStrategyUnderRestrictedReachability(t *testing.T) {
	// Place via the full transport (the service provider side), then
	// look up through a hop-limited client: the driver must satisfy t
	// using only reachable servers.
	rng := stats.NewRNG(4)
	g := newRing(12, 3, rng.Split())
	cl := cluster.New(6, rng.Split())
	serverNodes := []int{0, 2, 4, 6, 8, 10}

	drv := strategy.MustNew(wire.Config{Scheme: wire.RoundRobin, Y: 3}, rng.Split())
	ctx := context.Background()
	if err := drv.Place(ctx, cl.Caller(), "k", entry.Synthetic(30)); err != nil {
		t.Fatal(err)
	}

	rc, err := restrict(cl.Caller(), g, 1, serverNodes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rc.ReachableCount() == 0 || rc.ReachableCount() == 6 {
		t.Fatalf("want a strict subset reachable, got %d of 6", rc.ReachableCount())
	}
	res, err := drv.PartialLookup(ctx, rc, "k", 5)
	if err != nil {
		t.Fatalf("restricted lookup: %v", err)
	}
	if !res.Satisfied(5) {
		t.Fatalf("restricted lookup got %d entries", len(res.Entries))
	}
	if res.Contacted > rc.ReachableCount() {
		t.Fatalf("contacted %d > reachable %d", res.Contacted, rc.ReachableCount())
	}
}

func TestRestrictValidation(t *testing.T) {
	rng := stats.NewRNG(5)
	g := newRing(5, 0, rng.Split())
	cl := cluster.New(2, rng.Split())
	if _, err := restrict(cl.Caller(), g, 0, []int{0}, 1); err == nil {
		t.Fatal("mismatched server list accepted")
	}
	if _, err := restrict(cl.Caller(), g, 9, []int{0, 1}, 1); err == nil {
		t.Fatal("out-of-graph client accepted")
	}
	if _, err := restrict(cl.Caller(), g, 0, []int{0, 99}, 1); err == nil {
		t.Fatal("out-of-graph server host accepted")
	}
}
