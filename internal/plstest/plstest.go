// Package plstest is a cluster-wide invariant checker for the
// placement schemes: given a snapshot of every server's local state
// for a key and the key's placement config, it verifies the structural
// invariants each scheme promises (set-size bounds, Round-y position
// windows and agreement, Hash-y ring ownership, partition homing) and,
// separately, the coverage a fully repaired cluster must exhibit
// (replication degree restored on every alive server).
//
// The split matters: Check holds at every instant of a correct
// execution — mid-churn, mid-repair, with failed servers carrying
// frozen state — while CheckCoverage only holds at quiescence, after
// updates have landed everywhere they should (or an anti-entropy sweep
// has re-replicated what churn destroyed). Repair tests assert both
// after every sweep; the existing churn/replace tests use Check plus
// the scheme-appropriate coverage claims.
package plstest

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/topo"
	"repro/internal/wire"
)

// ServerState is one server's observed local state for a key.
type ServerState struct {
	// Alive reports whether the server was operational when observed;
	// dead servers' frozen state is exempt from coverage claims.
	Alive bool
	// Set is the server's local entry set.
	Set *entry.Set
	// Positions is the Round-y position map (empty for other schemes).
	Positions map[entry.Entry]int
	// HCount is the RandomServer-x system-size counter.
	HCount int
	// Head and Tail are the Round-y counters, set on the sequencer
	// (server 0) alone.
	Head, Tail int
}

// View is a consistent observation of one key across a cluster.
type View struct {
	Key     string
	Config  wire.Config
	Servers []ServerState
	// Topology is the cluster's zone topology, nil without one. With
	// Config.ZoneSpread set, Hash-y/MultiProbe-y home checks resolve
	// through it exactly as the executors do (node.HomesFor).
	Topology *topo.Topology
}

// Observe snapshots one key across every server of a cluster. It reads
// node state directly (never the transport), so observing perturbs
// neither message counters nor RNG streams.
func Observe(c *cluster.Cluster, key string, cfg wire.Config) View {
	v := View{Key: key, Config: cfg, Servers: make([]ServerState, c.N()), Topology: c.Topology()}
	for i := 0; i < c.N(); i++ {
		nd := c.Node(i)
		head, tail := nd.Counters(key)
		v.Servers[i] = ServerState{
			Alive:     c.Alive(i),
			Set:       nd.LocalSet(key),
			Positions: nd.Positions(key),
			HCount:    nd.SystemCount(key),
			Head:      head,
			Tail:      tail,
		}
	}
	return v
}

// inWindow reports whether server id is one of the y consecutive homes
// of Round-y position pos in a cluster of n.
func inWindow(id, pos, y, n int) bool {
	for j := 0; j < y && j < n; j++ {
		if (pos+j)%n == id {
			return true
		}
	}
	return false
}

// Check verifies the structural invariants that must hold at every
// instant: no server stores an entry outside live (no resurrection —
// pass nil to skip when recovered-stale servers are in play), subset
// schemes respect their x bound, every Round-y entry sits inside its
// position's server window with positions agreeing across servers and
// no two live entries sharing one, and Hash-y / KeyPartition entries
// sit only on their assigned servers. It returns one error per
// violation, in deterministic order.
func (v View) Check(live *entry.Set) []error {
	var errs []error
	n := len(v.Servers)
	cfg := v.Config
	// Cross-server Round-y position agreement.
	agreed := make(map[entry.Entry]int)
	agreedBy := make(map[entry.Entry]int)
	for i, sv := range v.Servers {
		for _, m := range sv.Set.Members() {
			if live != nil && !live.Contains(m) {
				errs = append(errs, fmt.Errorf("key %q: server %d stores entry %q not in the live set", v.Key, i, m))
			}
		}
		switch cfg.Scheme {
		case wire.Fixed, wire.RandomServer:
			if sv.Set.Len() > cfg.X {
				errs = append(errs, fmt.Errorf("key %q: server %d stores %d entries, above the x=%d bound", v.Key, i, sv.Set.Len(), cfg.X))
			}
		case wire.RoundRobin:
			for _, m := range sv.Set.Members() {
				pos, ok := sv.Positions[m]
				if !ok {
					errs = append(errs, fmt.Errorf("key %q: server %d stores Round-y entry %q without a position", v.Key, i, m))
					continue
				}
				if pos < 0 {
					errs = append(errs, fmt.Errorf("key %q: server %d entry %q has negative position %d", v.Key, i, m, pos))
					continue
				}
				if !inWindow(i, pos, cfg.Y, n) {
					errs = append(errs, fmt.Errorf("key %q: server %d stores entry %q at position %d outside its window (y=%d, n=%d)", v.Key, i, m, pos, cfg.Y, n))
				}
				if prev, ok := agreed[m]; ok {
					if prev != pos {
						errs = append(errs, fmt.Errorf("key %q: entry %q position disagrees: server %d says %d, server %d says %d", v.Key, m, agreedBy[m], prev, i, pos))
					}
				} else {
					agreed[m] = pos
					agreedBy[m] = i
				}
			}
			if i == 0 && sv.Head > sv.Tail {
				errs = append(errs, fmt.Errorf("key %q: sequencer %d has head %d > tail %d", v.Key, i, sv.Head, sv.Tail))
			}
		case wire.Hash, wire.MultiProbe:
			for _, m := range sv.Set.Members() {
				home := false
				for _, t := range node.HomesFor(m, cfg, n, v.Topology) {
					if t == i {
						home = true
						break
					}
				}
				if !home {
					errs = append(errs, fmt.Errorf("key %q: server %d stores entry %q outside its %v assignment", v.Key, i, m, cfg.Scheme))
				}
			}
		case wire.KeyPartition:
			if sv.Set.Len() > 0 && i != node.PartitionServer(v.Key, n) {
				errs = append(errs, fmt.Errorf("key %q: server %d stores %d entries but the partition home is server %d", v.Key, i, sv.Set.Len(), node.PartitionServer(v.Key, n)))
			}
		}
	}
	if cfg.Scheme == wire.RoundRobin && live != nil {
		errs = append(errs, sharedPositions(v.Key, agreed, live)...)
	}
	return errs
}

// sharedPositions reports every Round-y position that two live entries
// hold (each at the first position a server reported for it, agreed):
// the sequencer handed one position out twice. A stale copy may share
// its old position with the entry that plugged its hole, so only live
// entries count.
func sharedPositions(key string, agreed map[entry.Entry]int, live *entry.Set) []error {
	byPos := make(map[int][]entry.Entry)
	var shared []int
	for m, p := range agreed {
		if live.Contains(m) {
			if byPos[p] = append(byPos[p], m); len(byPos[p]) == 2 {
				shared = append(shared, p)
			}
		}
	}
	slices.Sort(shared)
	var errs []error
	for _, p := range shared {
		slices.Sort(byPos[p])
		errs = append(errs, fmt.Errorf("key %q: live entries %q share Round-y position %d", key, byPos[p], p))
	}
	return errs
}

// CheckCoverage verifies the replication degree a quiescent, fully
// repaired cluster must exhibit for the live entry population: every
// alive server holds what its scheme assigns it. It assumes no
// resurrection (run Check first) and, for the subset schemes, that the
// population was built without un-refilled deletes (the cushion
// semantics of RandomServer-x legitimately dip below x after deletes;
// only kill/replace churn is a repairable deficit).
func (v View) CheckCoverage(live *entry.Set) []error {
	var errs []error
	n := len(v.Servers)
	cfg := v.Config
	want := live.Len()
	switch cfg.Scheme {
	case wire.FullReplication:
		for i, sv := range v.Servers {
			if !sv.Alive {
				continue
			}
			for _, m := range live.Members() {
				if !sv.Set.Contains(m) {
					errs = append(errs, fmt.Errorf("key %q: alive server %d is missing entry %q (full replication)", v.Key, i, m))
				}
			}
		}
	case wire.Fixed:
		size := min(cfg.X, want)
		var ref *ServerState
		refID := -1
		for i := range v.Servers {
			sv := &v.Servers[i]
			if !sv.Alive {
				continue
			}
			if sv.Set.Len() != size {
				errs = append(errs, fmt.Errorf("key %q: alive server %d holds %d entries, want min(x, live)=%d", v.Key, i, sv.Set.Len(), size))
			}
			if ref == nil {
				ref, refID = sv, i
				continue
			}
			for _, m := range sv.Set.Members() {
				if !ref.Set.Contains(m) {
					errs = append(errs, fmt.Errorf("key %q: Fixed-x sets diverge: server %d holds %q, server %d does not", v.Key, i, m, refID))
				}
			}
		}
	case wire.RandomServer:
		size := min(cfg.X, want)
		for i, sv := range v.Servers {
			if !sv.Alive {
				continue
			}
			if sv.Set.Len() != size {
				errs = append(errs, fmt.Errorf("key %q: alive server %d holds %d entries, want min(x, live)=%d", v.Key, i, sv.Set.Len(), size))
			}
			if sv.HCount != want {
				errs = append(errs, fmt.Errorf("key %q: alive server %d system count %d, want %d", v.Key, i, sv.HCount, want))
			}
		}
	case wire.RoundRobin:
		// Positions agreed across servers (Check verifies); gather the
		// alive cluster's view of each live entry's position.
		pos := make(map[entry.Entry]int)
		for i := range v.Servers {
			sv := &v.Servers[i]
			if !sv.Alive {
				continue
			}
			for m, p := range sv.Positions {
				if sv.Set.Contains(m) {
					pos[m] = p
				}
			}
		}
		for _, m := range live.Members() {
			p, ok := pos[m]
			if !ok {
				errs = append(errs, fmt.Errorf("key %q: live entry %q is not stored on any alive server (lost)", v.Key, m))
				continue
			}
			for i, sv := range v.Servers {
				if !sv.Alive || !inWindow(i, p, cfg.Y, n) {
					continue
				}
				if !sv.Set.Contains(m) {
					errs = append(errs, fmt.Errorf("key %q: alive server %d is missing entry %q at position %d (window y=%d)", v.Key, i, m, p, cfg.Y))
				}
			}
		}
	case wire.Hash, wire.MultiProbe:
		for _, m := range live.Members() {
			stored := false
			for _, t := range node.HomesFor(m, cfg, n, v.Topology) {
				sv := v.Servers[t]
				if !sv.Alive {
					continue
				}
				if sv.Set.Contains(m) {
					stored = true
				} else {
					errs = append(errs, fmt.Errorf("key %q: alive server %d is missing entry %q (%v home)", v.Key, t, m, cfg.Scheme))
				}
			}
			if !stored {
				errs = append(errs, fmt.Errorf("key %q: live entry %q is not stored on any alive %v home (lost)", v.Key, m, cfg.Scheme))
			}
		}
	case wire.KeyPartition:
		home := node.PartitionServer(v.Key, n)
		if v.Servers[home].Alive {
			for _, m := range live.Members() {
				if !v.Servers[home].Set.Contains(m) {
					errs = append(errs, fmt.Errorf("key %q: partition home %d is missing entry %q", v.Key, home, m))
				}
			}
		}
	}
	return errs
}

// Assert fails the test with every violation in errs, prefixed by a
// caller-supplied context string (e.g. "round 3, post-sweep").
func Assert(t testing.TB, context string, errs []error) {
	t.Helper()
	for _, err := range errs {
		t.Errorf("%s: %v", context, err)
	}
}
