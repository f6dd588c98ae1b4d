package plstest

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/wire"
)

func liveSet(entries ...string) *entry.Set {
	s := entry.NewSet(len(entries))
	for _, e := range entries {
		s.Add(entry.Entry(e))
	}
	return s
}

func server(alive bool, entries ...string) ServerState {
	return ServerState{Alive: alive, Set: liveSet(entries...), Positions: map[entry.Entry]int{}}
}

func hasErr(errs []error, substr string) bool {
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return true
		}
	}
	return false
}

// A healthy, fully placed cluster must pass both checks for every
// scheme end to end (Observe + Check + CheckCoverage).
func TestChecksPassOnHealthyCluster(t *testing.T) {
	h := make([]string, 30)
	live := entry.NewSet(len(h))
	for i, v := range entry.Synthetic(len(h)) {
		h[i] = string(v)
		live.Add(v)
	}
	for _, cfg := range []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 10},
		{Scheme: wire.RandomServer, X: 10},
		{Scheme: wire.RoundRobin, Y: 3},
		{Scheme: wire.Hash, Y: 2, Seed: 99},
		{Scheme: wire.KeyPartition},
	} {
		t.Run(cfg.Scheme.String(), func(t *testing.T) {
			c := cluster.New(6, stats.NewRNG(7))
			initial := 1 % c.N()
			if cfg.Scheme == wire.RoundRobin {
				initial = 0
			}
			reply := c.Node(initial).Handle(context.Background(),
				wire.Place{Key: "k", Config: cfg, Entries: h})
			if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
				t.Fatalf("place failed: %+v", reply)
			}
			v := Observe(c, "k", cfg)
			Assert(t, "structural", v.Check(live))
			Assert(t, "coverage", v.CheckCoverage(live))
		})
	}
}

// Hand-built views exercise each violation the checker must catch —
// the checker itself needs a negative test or silent under-replication
// could silently pass again, one level up.
func TestCheckDetectsViolations(t *testing.T) {
	live := liveSet("v1", "v2")

	t.Run("resurrection", func(t *testing.T) {
		v := View{Key: "k", Config: wire.Config{Scheme: wire.FullReplication},
			Servers: []ServerState{server(true, "v1", "ghost")}}
		if !hasErr(v.Check(live), "not in the live set") {
			t.Fatal("resurrected entry not detected")
		}
	})

	t.Run("fixed-over-x", func(t *testing.T) {
		v := View{Key: "k", Config: wire.Config{Scheme: wire.Fixed, X: 1},
			Servers: []ServerState{server(true, "v1", "v2")}}
		if !hasErr(v.Check(live), "above the x=1 bound") {
			t.Fatal("x overflow not detected")
		}
	})

	t.Run("round-window-and-agreement", func(t *testing.T) {
		cfg := wire.Config{Scheme: wire.RoundRobin, Y: 1}
		// v1 at position 0 belongs on server 0 only (y=1, n=2).
		misplaced := server(true, "v1")
		misplaced.Positions = map[entry.Entry]int{"v1": 0}
		ok := server(true, "v1")
		ok.Positions = map[entry.Entry]int{"v1": 1}
		v := View{Key: "k", Config: cfg, Servers: []ServerState{ok, misplaced}}
		errs := v.Check(live)
		if !hasErr(errs, "outside its window") {
			t.Fatalf("window violation not detected: %v", errs)
		}
		if !hasErr(errs, "position disagrees") {
			t.Fatalf("position disagreement not detected: %v", errs)
		}
		// An entry with no recorded position at all.
		nopos := server(true, "v2")
		v = View{Key: "k", Config: cfg, Servers: []ServerState{nopos}}
		if !hasErr(v.Check(live), "without a position") {
			t.Fatal("missing position not detected")
		}
	})

	t.Run("round-shared-position", func(t *testing.T) {
		// v1 and v2 both at position 1 (y=1, n=2: server 1's window),
		// and a stale v3 there too, which only a live set may excuse.
		cfg := wire.Config{Scheme: wire.RoundRobin, Y: 1}
		s1 := server(true, "v1", "v2", "v3")
		s1.Positions = map[entry.Entry]int{"v1": 1, "v2": 1, "v3": 1}
		v := View{Key: "k", Config: cfg, Servers: []ServerState{server(true), s1}}
		errs := v.Check(live)
		if !hasErr(errs, `live entries ["v1" "v2"] share Round-y position 1`) {
			t.Fatalf("shared position not detected: %v", errs)
		}
		if hasErr(v.Check(nil), "share Round-y position") {
			t.Fatal("shared position flagged without a live set")
		}
	})

	t.Run("hash-ownership", func(t *testing.T) {
		cfg := wire.Config{Scheme: wire.Hash, Y: 1, Seed: 5}
		n := 4
		owner := node.HashAssign("v1", 1, n, 5)[0]
		wrong := (owner + 1) % n
		servers := make([]ServerState, n)
		for i := range servers {
			servers[i] = server(true)
		}
		servers[wrong] = server(true, "v1")
		v := View{Key: "k", Config: cfg, Servers: servers}
		if !hasErr(v.Check(live), "outside its Hash-y assignment") {
			t.Fatal("hash misplacement not detected")
		}
	})

	t.Run("partition-homing", func(t *testing.T) {
		n := 4
		home := node.PartitionServer("k", n)
		servers := make([]ServerState, n)
		for i := range servers {
			servers[i] = server(true)
		}
		servers[(home+1)%n] = server(true, "v1")
		v := View{Key: "k", Config: wire.Config{Scheme: wire.KeyPartition}, Servers: servers}
		if !hasErr(v.Check(live), "partition home") {
			t.Fatal("partition misplacement not detected")
		}
	})
}

// Coverage violations: an empty replacement server must fail coverage
// for every scheme that can repair it — this is exactly the deficit
// the anti-entropy daemon exists to close.
func TestCheckCoverageDetectsDeficit(t *testing.T) {
	live := liveSet("v1", "v2")

	t.Run("full-missing", func(t *testing.T) {
		v := View{Key: "k", Config: wire.Config{Scheme: wire.FullReplication},
			Servers: []ServerState{server(true, "v1", "v2"), server(true)}}
		if !hasErr(v.CheckCoverage(live), "missing entry") {
			t.Fatal("missing replica not detected")
		}
	})

	t.Run("fixed-divergence", func(t *testing.T) {
		v := View{Key: "k", Config: wire.Config{Scheme: wire.Fixed, X: 2},
			Servers: []ServerState{server(true, "v1", "v2"), server(true)}}
		errs := v.CheckCoverage(live)
		if !hasErr(errs, "want min(x, live)=2") {
			t.Fatalf("underfilled Fixed set not detected: %v", errs)
		}
	})

	t.Run("rs-size-and-hcount", func(t *testing.T) {
		sv := server(true, "v1")
		sv.HCount = 1
		v := View{Key: "k", Config: wire.Config{Scheme: wire.RandomServer, X: 2},
			Servers: []ServerState{sv}}
		errs := v.CheckCoverage(live)
		if !hasErr(errs, "want min(x, live)=2") || !hasErr(errs, "system count 1, want 2") {
			t.Fatalf("RS deficit not detected: %v", errs)
		}
	})

	t.Run("round-lost-and-missing", func(t *testing.T) {
		cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
		a := server(true, "v1")
		a.Positions = map[entry.Entry]int{"v1": 0}
		b := server(true) // should hold v1 too (window of position 0, y=2)
		v := View{Key: "k", Config: cfg, Servers: []ServerState{a, b}}
		if !hasErr(v.CheckCoverage(liveSet("v1")), "missing entry") {
			t.Fatal("missing window replica not detected")
		}
		// No alive server holds v2 at all: it is lost.
		if !hasErr(v.CheckCoverage(live), "lost") {
			t.Fatal("lost entry not detected")
		}
	})

	t.Run("dead-servers-exempt", func(t *testing.T) {
		v := View{Key: "k", Config: wire.Config{Scheme: wire.FullReplication},
			Servers: []ServerState{server(true, "v1", "v2"), server(false)}}
		if errs := v.CheckCoverage(live); len(errs) != 0 {
			t.Fatalf("dead server charged with coverage: %v", errs)
		}
	})
}
