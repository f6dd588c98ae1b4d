package cluster_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/plstest"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/topo"
	"repro/internal/wire"
)

// zoneCluster builds an 8-server cluster on a 2x2x2 topology (one
// server per rack; servers 0..3 under region r0, 4..7 under r1).
func zoneCluster(t *testing.T, seed uint64) (*cluster.Cluster, *topo.Topology) {
	t.Helper()
	cl := cluster.New(8, stats.NewRNG(seed))
	tp, err := topo.Parse("2x2x2", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SetTopology(tp); err != nil {
		t.Fatal(err)
	}
	return cl, tp
}

// TestZonePartitionInvariantsAllSchemes runs every placement scheme
// with region r0 severed: updates issued mid-partition may fail (the
// paper's fault model — unreachable homes simply miss them), but no
// partial application may ever break a scheme's structural invariants,
// and once the zone heals, lookups satisfy again from the surviving
// placement.
func TestZonePartitionInvariantsAllSchemes(t *testing.T) {
	configs := []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 8},
		{Scheme: wire.RandomServer, X: 8},
		{Scheme: wire.RoundRobin, Y: 3},
		{Scheme: wire.Hash, Y: 3, Seed: 7, ZoneSpread: true},
		{Scheme: wire.MultiProbe, Y: 3, Seed: 7, ZoneSpread: true},
		{Scheme: wire.KeyPartition},
	}
	for ci, cfg := range configs {
		t.Run(cfg.Scheme.String(), func(t *testing.T) {
			ctx := context.Background()
			cl, _ := zoneCluster(t, uint64(300+ci))
			drv := strategy.MustNew(cfg, stats.NewRNG(uint64(400+ci)))
			if err := drv.Place(ctx, cl.Caller(), "k", entry.Synthetic(24)); err != nil {
				t.Fatalf("place: %v", err)
			}

			cl.Chaos().PartitionZone("r0")
			// Best-effort churn against the split cluster: adds whose homes
			// sit inside r0 fail, the rest land. Either way the structure
			// must hold at every instant.
			failed := 0
			for i := 0; i < 16; i++ {
				v := entry.Entry(fmt.Sprintf("part%d", i))
				if err := drv.Add(ctx, cl.Caller(), "k", v); err != nil {
					failed++
				}
			}
			v := plstest.Observe(cl, "k", cfg)
			plstest.Assert(t, "mid-partition structural", v.Check(nil))

			cl.Chaos().HealZone("r0")
			res, err := drv.PartialLookup(ctx, cl.Caller(), "k", 4)
			if err != nil {
				t.Fatalf("post-heal lookup: %v", err)
			}
			if !res.Satisfied(4) {
				t.Fatalf("post-heal lookup returned %d entries, want >= 4", len(res.Entries))
			}
			v = plstest.Observe(cl, "k", cfg)
			plstest.Assert(t, "post-heal structural", v.Check(nil))
			t.Logf("%v: %d/16 mid-partition adds failed", cfg.Scheme, failed)
		})
	}
}

// TestReplacePreservesZoneTopology pins the Replace regression the
// cluster.Replace comment points at: the fresh node must re-learn the
// cluster's shared topology, or its spread-mode home computations
// diverge — it would reject repair pushes for entries it should hold
// and plan its own sweeps under base assignment. Verified both
// white-box (shared instance) and end-to-end (repair restores full
// spread coverage onto the blank replacement).
func TestReplacePreservesZoneTopology(t *testing.T) {
	ctx := context.Background()
	cl, tp := zoneCluster(t, 310)
	cfg := wire.Config{Scheme: wire.Hash, Y: 3, Seed: 9, ZoneSpread: true}
	drv := strategy.MustNew(cfg, stats.NewRNG(410))
	entries := entry.Synthetic(40)
	if err := drv.Place(ctx, cl.Caller(), "k", entries); err != nil {
		t.Fatalf("place: %v", err)
	}
	live := entry.NewSet(len(entries))
	for _, v := range entries {
		live.Add(v)
	}

	nd := cl.Replace(3, stats.NewRNG(999))
	if nd.View().Topology != tp {
		t.Fatal("Replace installed a node without the cluster's shared topology")
	}

	// Anti-entropy re-populates the blank replacement; with the shared
	// topology attached it must converge back to full spread coverage.
	for i := 0; i < cl.N(); i++ {
		r := node.NewRepairer(cl.Node(i), node.RepairOptions{Health: cl.Health()})
		r.SweepOnce(ctx)
	}
	v := plstest.Observe(cl, "k", cfg)
	plstest.Assert(t, "post-replace structural", v.Check(live))
	plstest.Assert(t, "post-replace coverage", v.CheckCoverage(live))
}

// TestZoneColdPathByteIdentical pins the tentpole's determinism
// contract at cluster scope: attaching a topology with spread off, a
// zero latency profile, and an off-net client changes nothing — the
// same seeds yield byte-identical lookup answers, probe counts, and
// message totals as a topology-free run. RandomServer-x is the scheme
// most sensitive to stray RNG draws (every lookup consumes a fresh
// probe permutation), so it is the one pinned.
func TestZoneColdPathByteIdentical(t *testing.T) {
	type sample struct {
		Entries   []entry.Entry
		Contacted int
	}
	run := func(attach bool) ([]sample, int64) {
		ctx := context.Background()
		cl := cluster.New(8, stats.NewRNG(55))
		if attach {
			tp, err := topo.Parse("2x2x2", 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.SetTopology(tp); err != nil {
				t.Fatal(err)
			}
		}
		drv := strategy.MustNew(wire.Config{Scheme: wire.RandomServer, X: 6}, stats.NewRNG(56))
		for k := 0; k < 6; k++ {
			key := fmt.Sprintf("k%d", k)
			if err := drv.Place(ctx, cl.Caller(), key, entry.Synthetic(9)); err != nil {
				t.Fatalf("place %s: %v", key, err)
			}
		}
		var out []sample
		for round := 0; round < 3; round++ {
			for k := 0; k < 6; k++ {
				res, err := drv.PartialLookup(ctx, cl.Caller(), fmt.Sprintf("k%d", k), 5)
				if err != nil {
					t.Fatalf("lookup: %v", err)
				}
				out = append(out, sample{Entries: res.Entries, Contacted: res.Contacted})
			}
		}
		return out, cl.Messages()
	}
	plainSamples, plainMsgs := run(false)
	zonedSamples, zonedMsgs := run(true)
	if plainMsgs != zonedMsgs {
		t.Fatalf("message totals diverged: %d without topology, %d with", plainMsgs, zonedMsgs)
	}
	if !reflect.DeepEqual(plainSamples, zonedSamples) {
		t.Fatal("seeded lookups diverged after attaching an inert topology")
	}
}

// arms builds the same seeded cluster in process and wired, for tests
// that must hold in both.
func arms(t *testing.T, n int, seed uint64) map[string]*cluster.Cluster {
	return map[string]*cluster.Cluster{
		"inproc": cluster.New(n, stats.NewRNG(seed)),
		"wired":  newWired(t, n, stats.NewRNG(seed)),
	}
}

// TestZoneSpreadThroughJoinAndDrain runs zone-spread Hash-2 keys through
// a join and a drain. Each member fits its own topology to a change as
// it commits it, and a member that has not committed yet judges a
// push under the topology the push's transition fits: every entry
// sits on a home of its key after each transition, and the rebalances
// leave nothing for the repair sweep that follows.
func TestZoneSpreadThroughJoinAndDrain(t *testing.T) {
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 11, ZoneSpread: true}
	keys := []string{"a", "b", "c", "d"}
	entries := entry.Synthetic(30)
	live := entry.NewSet(len(entries))
	for _, v := range entries {
		live.Add(v)
	}
	for name, cl := range arms(t, 8, 320) {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			tp, err := topo.Parse("2x2x2", 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.SetTopology(tp); err != nil {
				t.Fatal(err)
			}
			drv := strategy.MustNew(cfg, stats.NewRNG(420))
			for _, k := range keys {
				if err := drv.Place(ctx, cl.Caller(), k, entries); err != nil {
					t.Fatalf("place %s: %v", k, err)
				}
			}
			check := func(stage string) {
				t.Helper()
				for _, k := range keys {
					plstest.Assert(t, stage+", key "+k, plstest.Observe(cl, k, cfg).Check(live))
				}
			}
			if _, err := cl.Join(ctx, stats.NewRNG(520)); err != nil {
				t.Fatalf("join: %v", err)
			}
			check("after the join")
			if _, err := cl.Drain(ctx, 2); err != nil {
				t.Fatalf("drain: %v", err)
			}
			check("after the drain")
			if cl.Topology().N() != 8 {
				t.Fatalf("cluster topology covers %d servers after join and drain, want 8", cl.Topology().N())
			}
			moved := 0
			for i := 0; i < cl.N(); i++ {
				if tp := cl.Node(i).View().Topology; tp.Spec() != cl.Topology().Spec() {
					t.Errorf("node %d fitted its topology to %s, want %s", i, tp.Spec(), cl.Topology().Spec())
				}
				moved += node.NewRepairer(cl.Node(i), node.RepairOptions{Health: cl.Health()}).SweepOnce(ctx).Moved
			}
			if moved != 0 {
				t.Errorf("the rebalances left %d entries for repair, want 0", moved)
			}
			check("after repair")
			for _, k := range keys {
				plstest.Assert(t, "coverage after repair, key "+k, plstest.Observe(cl, k, cfg).CheckCoverage(live))
			}
		})
	}
}
