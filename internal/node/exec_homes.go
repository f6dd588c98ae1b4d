package node

import (
	"context"
	"strings"

	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/topo"
	"repro/internal/wire"
)

// homesExec implements the two per-entry-homes strategies: Hash-y
// (Secs. 3.5, 5.5; HashAssign) and MultiProbe-y (multi-probe consistent
// hashing, arXiv:1505.00062; MultiProbeAssign). Entry v lives on the servers HomesFor
// returns, every update touches exactly those servers and no
// coordinator state exists. The two schemes differ only in the assign
// function HomesFor dispatches to, so every path below is shared.
type homesExec struct{}

// HomesFor returns the servers entry v lives on under cfg in a
// cluster of n servers: the scheme's base assignment, or the
// topology's zone-spread assignment when cfg.ZoneSpread is set and tp
// covers the cluster. Schemes without per-entry deterministic homes
// return nil. Exported so plstest computes homes exactly as the
// executor does.
//
// Consistency contract: an entry's homes must be computed identically
// at placement, add/delete, plan and accept (repair and rebalance
// alike), and by the plstest invariant checker. HomesFor is that
// single point of truth. Spread is active only when the topology
// covers exactly the member count of the view. A member fits its
// topology to a transition when it commits it, before its rebalance
// sweep, so it plans under the post-change topology; one that has not
// committed yet judges a push under the topology the push's transition
// fits (topo.Resize), so sender and receiver agree on the homes.
//
// Only these two schemes spread, because they are the ones whose y
// copies of an entry can collapse into one failure domain (mod-n
// hashing and ring points are both zone-blind; for MultiProbe-y spread
// trades the ring's minimal movement for that diversity, the trade the
// ext-zone measures). The other five keep their base placement
// under the flag: Full, Fixed-x and RandomServer-x put copies on every
// server, hence in every zone (and steering RandomServer's RNG-driven
// sampling through the topology would break the seeded-stream
// discipline); Round-y gets its diversity from numbering instead —
// topo.Uniform assigns ids round-robin across racks, so any
// y <= numRacks consecutive ids already span y racks; KeyPartition
// keeps a single copy, so there is nothing to spread.
func HomesFor(v string, cfg wire.Config, n int, tp *topo.Topology) []int {
	if cfg.Scheme != wire.Hash && cfg.Scheme != wire.MultiProbe {
		return nil
	}
	if spreadActive(cfg, n, tp) {
		return tp.SpreadAssign(v, cfg.Y, cfg.Seed)
	}
	if cfg.Scheme == wire.Hash {
		return HashAssign(v, cfg.Y, n, cfg.Seed)
	}
	return MultiProbeAssign(v, cfg.Y, n, cfg.Seed)
}

// spreadActive reports whether the zone-spread assignment applies: the
// config asks for it and the topology covers exactly n members
// (mid-join/drain a member's live view and its topology are fitted at
// different moments; while their counts disagree it falls back to base
// assignment).
func spreadActive(cfg wire.Config, n int, tp *topo.Topology) bool {
	return cfg.ZoneSpread && tp != nil && tp.N() == n
}

// isHome reports whether server id is one of entry v's homes under
// cfg — the acceptance-rule counterpart of HomesFor.
func isHome(v string, cfg wire.Config, n, id int, tp *topo.Topology) bool {
	return containsServer(HomesFor(v, cfg, n, tp), id)
}

func containsServer(homes []int, id int) bool {
	for _, t := range homes {
		if t == id {
			return true
		}
	}
	return false
}

// place broadcasts the whole list; each server keeps the entries it is
// a home of.
func (homesExec) place(_ req, m wire.Place) (placePlan, error) {
	return placePlan{share: wire.StoreBatch(m), target: everyServer}, nil
}

func (homesExec) add(ctx context.Context, r req, _ *store.KeyState, cfg wire.Config, m wire.Add) wire.Message {
	mv := r.v.rule()
	for _, target := range HomesFor(m.Entry, cfg, mv.n, mv.tp) {
		if err := r.callBestEffort(ctx, target, wire.StoreOne{Key: m.Key, Config: cfg, Entry: m.Entry}); err != nil {
			return wire.Ack{Err: err.Error()}
		}
	}
	return wire.Ack{}
}

func (homesExec) del(ctx context.Context, r req, _ *store.KeyState, cfg wire.Config, m wire.Delete) wire.Message {
	mv := r.v.rule()
	for _, target := range HomesFor(m.Entry, cfg, mv.n, mv.tp) {
		if err := r.callBestEffort(ctx, target, wire.RemoveOne{Key: m.Key, Config: cfg, Entry: m.Entry}); err != nil {
			return wire.Ack{Err: err.Error()}
		}
	}
	return wire.Ack{}
}

// storeBatch keeps this server's share of a placed list, by the rule
// accept evaluates, copied out of the message as Round-y's is.
func (homesExec) storeBatch(r req, st *store.State, entries []string) {
	mv := r.v.rule()
	for _, v := range entries {
		if isHome(v, st.Cfg, mv.n, mv.self, mv.tp) {
			st.Set.Add(strings.Clone(v))
		}
	}
}

func (homesExec) storeOne(_ req, st *store.State, m wire.StoreOne) {
	logAdd(st, m.Entry)
}

func (homesExec) removeOne(_ context.Context, _ req, st *store.State, m wire.RemoveOne) func() {
	logRemove(st, m.Entry)
	return nil
}

// plan: each local entry is offered to the other servers of its
// assignment under mv, and dropped when this server is not among them.
// This is where the two assigns part ways on a membership change: the
// mod-n in HashAssign remaps almost every entry when n changes, so
// nearly the whole key space is offered and re-homed, while
// MultiProbeAssign's ring points are n-independent, so almost every
// assignment is unchanged and the query phase confirms peers already
// hold their share.
func (homesExec) plan(v repairView, mv memberView) ([]repairCandidate, []string) {
	if v.cfg.Y <= 0 {
		return nil, nil
	}
	return perEntryHomeCandidates(v.entries, mv, false, func(s string) ([]int, int, bool) {
		return HomesFor(s, v.cfg, mv.n, mv.tp), 0, true
	})
}

// accept: store an entry only if this server really is one of its
// homes under mv, matching the planner; anything else is dropped.
func (homesExec) accept(st *store.State, p wire.RepairPush, mv memberView) int {
	return acceptMissing(st, p.Entries, false, func(i int, v entry.Entry) bool {
		return isHome(p.Entries[i], st.Cfg, mv.n, mv.self, mv.tp) && logAdd(st, v)
	})
}
