package node

import (
	"context"

	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/wire"
)

// rsExec implements RandomServer-x (Secs. 3.3, 5.3): each server keeps
// an independent uniform random x-subset, maintained under updates by
// Vitter-style reservoir sampling against a per-server count of the
// system size.
type rsExec struct{}

// rsExt is the RandomServer strategy state: this server's running count
// of entries in the system (Sec. 5.3), carried in store.State.Ext.
type rsExt struct {
	hCount int
}

// rsExtOf returns the key's RandomServer state, creating it on first
// touch. Must be called with the key locked (inside Update/View).
func rsExtOf(st *store.State) *rsExt {
	ext, ok := st.Ext.(*rsExt)
	if !ok {
		ext = &rsExt{}
		st.Ext = ext
	}
	return ext
}

func (rsExec) place(_ req, m wire.Place) (placePlan, error) {
	// Broadcast the full list; receivers sample their local x-subset.
	return placePlan{share: wire.StoreBatch(m), target: everyServer}, nil
}

func (rsExec) add(ctx context.Context, r req, _ *store.KeyState, cfg wire.Config, m wire.Add) wire.Message {
	return r.ackBroadcast(ctx, wire.StoreOne{Key: m.Key, Config: cfg, Entry: m.Entry})
}

func (rsExec) del(ctx context.Context, r req, _ *store.KeyState, cfg wire.Config, m wire.Delete) wire.Message {
	return r.ackBroadcast(ctx, wire.RemoveOne{Key: m.Key, Config: cfg, Entry: m.Entry})
}

func (rsExec) storeBatch(r req, st *store.State, entries []string) {
	// Keep an independent uniform random x-subset (Sec. 3.3). The key
	// state logged is the chosen subset, not the offered batch: the
	// sampling decision happened here, once, and replay must not ask
	// the RNG again.
	rsExtOf(st).hCount = len(entries)
	if st.Cfg.X >= len(entries) {
		addAll(st, entries)
		return
	}
	for _, i := range r.rng.SampleInts(len(entries), st.Cfg.X) {
		st.Set.Add(entries[i])
	}
}

func (rsExec) storeOne(r req, st *store.State, m wire.StoreOne) {
	// Vitter reservoir sampling: with the counter incremented first,
	// keeping v with probability x/hCount is exactly the x/(h+1) rule
	// of [Vitter 85] cited in Sec. 5.3.
	ext := rsExtOf(st)
	ext.hCount++
	logHCount(st, ext.hCount)
	v := m.Entry
	switch {
	case st.Set.Contains(v):
		// Duplicate add; nothing to do.
	case st.Set.Len() < st.Cfg.X:
		logAdd(st, v)
	case r.rng.Bool(float64(st.Cfg.X) / float64(ext.hCount)):
		evict := st.Set.At(r.rng.IntN(st.Set.Len()))
		logRemove(st, evict)
		logAdd(st, v)
	}
}

// removeOne maintains the system-size counter. Under the Sec. 5.3
// replacement alternative (Config.RSReplace), a server that lost a copy
// actively contacts other servers to refill its subset instead of
// waiting for future adds; the search runs after the key unlocks.
func (rsExec) removeOne(ctx context.Context, r req, st *store.State, m wire.RemoveOne) func() {
	ext := rsExtOf(st)
	if ext.hCount > 0 {
		ext.hCount--
	}
	logHCount(st, ext.hCount)
	v := m.Entry
	had := logRemove(st, v)
	if !had || !st.Cfg.RSReplace {
		return nil
	}
	x := st.Cfg.X
	key := m.Key
	return func() { r.findReplacement(ctx, key, v, x) }
}

// findReplacement probes peers in random order for an entry this
// server does not yet hold ("two servers are not likely to have the
// same entries", Sec. 5.3). Failure to find one is not an error: the
// set simply stays below x, like the cushion scheme.
func (r req) findReplacement(ctx context.Context, key string, deleted entry.Entry, x int) {
	for _, peer := range r.rng.Perm(len(r.v.Addrs)) {
		if peer == r.v.Self {
			continue
		}
		reply, err := r.callReply(ctx, peer, wire.Lookup{Key: key, T: x})
		if err != nil {
			continue // down peers are skipped, like a client would
		}
		lr, ok := reply.(wire.LookupReply)
		if !ok || lr.Err != "" {
			continue
		}
		ks, exists := r.store.Get(key)
		if !exists {
			return
		}
		done := false
		ks.Update(func(st *store.State) {
			for _, v := range lr.Entries {
				if v == deleted || st.Set.Contains(v) {
					continue
				}
				if st.Set.Len() < st.Cfg.X {
					logAdd(st, v)
				}
				done = true
				return
			}
		})
		if done {
			return
		}
	}
}

// plan: there are no deterministic homes — each server keeps an
// independent x-subset — so the maintainable invariant is the subset
// *size*: every peer is offered the local set as refill candidates,
// capped at x on acceptance. The refilled subset is no longer a
// uniform draw (sweeps never consume RNG; reorder/plug, never redraw),
// trading a little sampling bias for restored cushion size — the same
// trade the Sec. 5.3 replacement alternative makes. A leaver drops
// only what a survivor confirms holding or accepts: subsets are
// independent draws, so a sole copy whose peers are all at capacity
// has no safe home — it rides out in the leaver's escrow checkpoint
// instead of being lost.
func (rsExec) plan(v repairView, mv memberView) ([]repairCandidate, []string) {
	return everyPeerPlan(v, mv, true)
}

// accept: adopt the pushed system count if it advances the local one
// (a freshly replaced or joined server starts at zero and must relearn
// the reservoir denominator), then refill plainly while below x — the
// reservoir is deliberately bypassed so no RNG draw happens.
func (rsExec) accept(st *store.State, p wire.RepairPush, _ memberView) int {
	ext := rsExtOf(st)
	if p.HCount > ext.hCount {
		ext.hCount = p.HCount
		logHCount(st, ext.hCount)
	}
	return acceptMissing(st, p.Entries, true, nil)
}

// SystemCount returns the node's local estimate of the number of entries
// in the system for a key (maintained by the RandomServer protocol).
func (n *Node) SystemCount(key string) int {
	ks, ok := n.store.Get(key)
	if !ok {
		return 0
	}
	count := 0
	ks.View(func(st *store.State) {
		if ext, ok := st.Ext.(*rsExt); ok {
			count = ext.hCount
		}
	})
	return count
}
