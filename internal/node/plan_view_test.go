package node

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/topo"
	"repro/internal/wire"
)

// viewCases are the seven schemes, Hash-y and MultiProbe-y twice: once
// on their base assignment and once zone-spread over an attached
// topology.
type viewCase struct {
	name   string
	cfg    wire.Config
	spread bool
}

func viewCases() []viewCase {
	return []viewCase{
		{"full", wire.Config{Scheme: wire.FullReplication}, false},
		{"fixed", wire.Config{Scheme: wire.Fixed, X: 5}, false},
		{"rs", wire.Config{Scheme: wire.RandomServer, X: 4}, false},
		{"round", wire.Config{Scheme: wire.RoundRobin, Y: 2}, false},
		{"hash", wire.Config{Scheme: wire.Hash, Y: 2, Seed: 0x5eed}, false},
		{"hash-spread", wire.Config{Scheme: wire.Hash, Y: 2, Seed: 0x5eed, ZoneSpread: true}, true},
		{"multiprobe", wire.Config{Scheme: wire.MultiProbe, Y: 2, Seed: 0x5eed}, false},
		{"multiprobe-spread", wire.Config{Scheme: wire.MultiProbe, Y: 2, Seed: 0x5eed, ZoneSpread: true}, true},
		{"partition", wire.Config{Scheme: wire.KeyPartition}, false},
	}
}

// placedCluster builds an n-server volatile cluster, attaches a
// two-rack topology when asked, and places 12 entries under key "k".
func placedCluster(t *testing.T, n int, cfg wire.Config, withTopo bool) *durCluster {
	t.Helper()
	dc := newDurCluster(t, n, 77, nil, store.SyncBatch)
	if withTopo {
		tp, err := topo.Uniform(1, 1, 2, n)
		if err != nil {
			t.Fatal(err)
		}
		for _, nd := range dc.nodes {
			nd.SetTopology(tp)
		}
	}
	entries := make([]string, 12)
	for i := range entries {
		entries[i] = fmt.Sprintf("v%d", i+1)
	}
	dc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: entries})
	return dc
}

// blank swaps a fresh empty node into a slot, as a disk-loss
// replacement would.
func (dc *durCluster) blank(slot int) *Node {
	nd := New(slot, stats.NewRNG(900))
	nd.SetTopology(dc.nodes[slot].View().Topology)
	dc.attach(slot, nd)
	dc.nodes[slot] = nd
	return nd
}

// offers flattens a plan into sorted "target:entry@pos" strings.
func offers(plan []repairCandidate) []string {
	var out []string
	for _, c := range plan {
		for i, e := range c.entries {
			s := fmt.Sprintf("%d:%s", c.target, e)
			if c.hasPos {
				s += fmt.Sprintf("@%d", c.positions[i])
			}
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// wantOffers restates each scheme's placement rule from the paper,
// independently of the executors, as what server self must offer its
// peers for the entries it holds.
func wantOffers(self, n int, v repairView, tp *topo.Topology) []string {
	var out []string
	for _, e := range v.entries {
		switch v.cfg.Scheme {
		case wire.FullReplication, wire.Fixed, wire.RandomServer:
			for t := 0; t < n; t++ {
				if t != self {
					out = append(out, fmt.Sprintf("%d:%s", t, e))
				}
			}
		case wire.RoundRobin:
			pos := v.positions[e]
			for j := 0; j < v.cfg.Y; j++ {
				if t := (pos + j) % n; t != self {
					out = append(out, fmt.Sprintf("%d:%s@%d", t, e, pos))
				}
			}
		case wire.Hash, wire.MultiProbe:
			for _, t := range HomesFor(e, v.cfg, n, tp) {
				if t != self {
					out = append(out, fmt.Sprintf("%d:%s", t, e))
				}
			}
		case wire.KeyPartition:
			// Only the home holds entries, and it has no one to offer to.
		}
	}
	sort.Strings(out)
	return out
}

// TestPlanAcceptUnderUnchangedView is the executable statement of
// "rebalance is repair under a different view": on a healthy placed
// cluster the plan under the live membership offers exactly what the
// scheme's rule says peers hold and drops nothing, and a transfer is
// accepted identically whether it arrives as a RepairPush without a
// transition (view = (id, n)) or as one carrying the identity
// transition.
func TestPlanAcceptUnderUnchangedView(t *testing.T) {
	ctx := context.Background()
	for i, tc := range viewCases() {
		n := 4 + i%3
		t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
			asRepair := placedCluster(t, n, tc.cfg, tc.spread)
			asRebalance := placedCluster(t, n, tc.cfg, tc.spread)
			exec := execFor(tc.cfg.Scheme)

			for _, nd := range asRepair.nodes {
				ks, ok := nd.store.Get("k")
				if !ok {
					continue
				}
				view := viewKey("k", ks)
				push, drop := exec.plan(view, nd.cur.Load().rule())
				if len(drop) != 0 {
					t.Errorf("node %d drops %v under its own membership", nd.ID(), drop)
				}
				if got, want := offers(push), wantOffers(nd.ID(), n, view, nd.View().Topology); !reflect.DeepEqual(got, want) {
					t.Errorf("node %d plan\n got %v\nwant %v", nd.ID(), got, want)
				}
			}

			// Blank one server in both clusters, then deliver every
			// survivor's share for it: as repair in one, as the identity
			// transition's rebalance in the other.
			victim := n - 1
			if tc.cfg.Scheme == wire.KeyPartition {
				victim = (PartitionServer("k", n) + 1) % n // the home has no donor
			}
			blankA, blankB := asRepair.blank(victim), asRebalance.blank(victim)
			for s, nd := range asRepair.nodes {
				ks, ok := nd.store.Get("k")
				if !ok || s == victim {
					continue
				}
				view := viewKey("k", ks)
				push, _ := exec.plan(view, nd.cur.Load().rule())
				for _, c := range push {
					if c.target != victim {
						continue
					}
					ra := blankA.Handle(ctx, wire.RepairPush{
						Key: "k", Config: view.cfg, Entries: c.entries,
						Positions: c.positions, HasPos: c.hasPos, HCount: view.hCount,
					})
					rb := blankB.Handle(ctx, wire.RepairPush{
						Key: "k", Config: view.cfg, Entries: c.entries,
						Positions: c.positions, HasPos: c.hasPos, HCount: view.hCount,
						NewN: n, Leaving: -1,
					})
					if !reflect.DeepEqual(ra, rb) {
						t.Fatalf("push from %d: repair replied %+v, rebalance %+v", s, ra, rb)
					}
					if pr := ra.(wire.RepairPushReply); pr.Err != "" {
						t.Fatalf("push from %d refused: %s", s, pr.Err)
					}
				}
			}
			if got, want := captureState(blankB), captureState(blankA); !reflect.DeepEqual(got, want) {
				t.Errorf("victim state diverged\nrebalance %+v\n   repair %+v", got, want)
			}
			if tc.cfg.Scheme != wire.KeyPartition && blankA.LocalLen("k") == 0 {
				t.Error("victim accepted nothing")
			}
		})
	}
}

// TestZoneSpreadWithoutTopologyIsBasePlacement pins the property that
// lets place serve both modes: with no topology attached the
// ZoneSpread bit changes nothing about where entries land, for any
// scheme.
func TestZoneSpreadWithoutTopologyIsBasePlacement(t *testing.T) {
	for _, tc := range viewCases() {
		if tc.spread {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			base := placedCluster(t, 5, tc.cfg, false)
			cfg := tc.cfg
			cfg.ZoneSpread = true
			spread := placedCluster(t, 5, cfg, false)
			for i := range base.nodes {
				got := captureState(spread.nodes[i])
				for key, sk := range got {
					sk.Config.ZoneSpread = false
					got[key] = sk
				}
				if want := captureState(base.nodes[i]); !reflect.DeepEqual(got, want) {
					t.Errorf("node %d:\nspread %+v\n  base %+v", i, got, want)
				}
			}
		})
	}
}

// TestRoundWindowWiderThanCluster pins the y > n case a drain below y
// produces: no window exists, so plan keeps every copy and offers
// nothing, and accept takes nothing.
func TestRoundWindowWiderThanCluster(t *testing.T) {
	for _, c := range []struct {
		pos, y, n, self int
		want            bool
	}{
		{pos: 0, y: 2, n: 4, self: 0, want: true},
		{pos: 0, y: 2, n: 4, self: 1, want: true},
		{pos: 0, y: 2, n: 4, self: 2, want: false},
		{pos: 7, y: 2, n: 4, self: 0, want: true}, // wraps: servers 3, 0
		{pos: 7, y: 2, n: 4, self: 1, want: false},
		{pos: 5, y: 4, n: 4, self: 2, want: true},  // y == n covers everyone
		{pos: 5, y: 3, n: 2, self: 0, want: false}, // y > n: no window
		{pos: 5, y: 3, n: 2, self: 1, want: false},
		{pos: 0, y: 2, n: 4, self: -1, want: false}, // the leaver
		{pos: -1, y: 2, n: 4, self: 3, want: false},
		{pos: 0, y: 0, n: 4, self: 0, want: false},
	} {
		if got := inWindow(c.pos, c.y, c.n, c.self); got != c.want {
			t.Errorf("inWindow(pos=%d, y=%d, n=%d, self=%d) = %v, want %v", c.pos, c.y, c.n, c.self, got, c.want)
		}
	}

	const n = 4
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 3}
	dc := placedCluster(t, n, cfg, false)
	for _, nd := range dc.nodes {
		ks, _ := nd.store.Get("k")
		view := viewKey("k", ks)
		before := nd.LocalLen("k")
		for self := -1; self < 2; self++ {
			push, drop := roundExec{}.plan(view, memberView{self: self, n: 2})
			if len(push) != 0 || len(drop) != 0 {
				t.Errorf("node %d as rank %d of 2 with y=3: push %v drop %v, want neither", nd.ID(), self, push, drop)
			}
		}
		if nd.ID() >= 2 {
			continue
		}
		// Drains later this node is one of two survivors; a peer's
		// positioned push lands in no window.
		reply := nd.Handle(context.Background(), wire.RepairPush{
			Key: "k", Config: cfg, Entries: []string{"late"}, Positions: []uint64{0}, HasPos: true,
			NewN: 2, Leaving: 3,
		})
		if pr, ok := reply.(wire.RepairPushReply); !ok || pr.Err != "" || pr.Accepted != 0 {
			t.Errorf("node %d accepted into a window wider than the cluster: %+v", nd.ID(), reply)
		}
		if nd.LocalLen("k") != before {
			t.Errorf("node %d set changed: %d -> %d", nd.ID(), before, nd.LocalLen("k"))
		}
	}
}

// TestRepairSweepReleasesNothing pins the one rule that tells the two
// uses of the sweep apart: a copy the plan drops (a Hash-2 entry on a
// server that is not one of its homes) survives a repair sweep, even
// though the query confirms its homes hold it. Only a sweep carrying a
// transition releases.
func TestRepairSweepReleasesNothing(t *testing.T) {
	const n = 4
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7}
	dc := placedCluster(t, n, cfg, false)
	const stray = "v1"
	self := 0
	for containsServer(HomesFor(stray, cfg, n, nil), self) {
		self++
	}
	nd := dc.nodes[self]
	ks, _ := nd.store.Get("k")
	ks.Update(func(st *store.State) { logAdd(st, stray) })
	if _, drop := execFor(cfg.Scheme).plan(viewKey("k", ks), nd.cur.Load().rule()); !reflect.DeepEqual(drop, []string{stray}) {
		t.Fatalf("server %d plans drops %v, want [%s]; test proves nothing", self, drop, stray)
	}

	health := staticHealth{dead: make([]bool, n), epoch: 1}
	st := NewRepairer(nd, RepairOptions{Health: health}).SweepOnce(context.Background())
	if st.Skipped || st.Queries == 0 {
		t.Fatalf("sweep did not query its homes: %+v", st)
	}
	if st.Dropped != 0 || !nd.LocalSet("k").Contains(stray) {
		t.Fatalf("repair sweep released %s from server %d: %+v", stray, self, st)
	}
}
