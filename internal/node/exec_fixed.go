package node

import (
	"context"

	"repro/internal/store"
	"repro/internal/wire"
)

// fixedExec implements Fixed-x (Secs. 3.2, 5.2): every server keeps the
// same x entries. Updates use the paper's selective broadcast — the
// initial server consults only its own copy to decide whether the
// cluster needs to hear about the update at all.
type fixedExec struct{}

func (fixedExec) place(_ req, m wire.Place) (placePlan, error) {
	// Broadcast only the first x entries (Sec. 3.2).
	if len(m.Entries) > m.Config.X {
		m.Entries = m.Entries[:m.Config.X]
	}
	return placePlan{share: wire.StoreBatch(m), target: everyServer}, nil
}

func (fixedExec) add(ctx context.Context, r req, ks *store.KeyState, cfg wire.Config, m wire.Add) wire.Message {
	// Selective broadcast: only when this server has room (Sec. 5.2).
	if ks.Len() >= cfg.X {
		return wire.Ack{}
	}
	return r.ackBroadcast(ctx, wire.StoreOne{Key: m.Key, Config: cfg, Entry: m.Entry})
}

func (fixedExec) del(ctx context.Context, r req, ks *store.KeyState, cfg wire.Config, m wire.Delete) wire.Message {
	// Selective broadcast: only when v is stored locally (Sec. 5.2).
	stored := false
	ks.View(func(st *store.State) { stored = st.Set.Contains(m.Entry) })
	if !stored {
		return wire.Ack{}
	}
	return r.ackBroadcast(ctx, wire.RemoveOne{Key: m.Key, Config: cfg, Entry: m.Entry})
}

func (fixedExec) storeBatch(_ req, st *store.State, entries []string) {
	// The sender already truncated the batch to x.
	addAll(st, entries)
}

func (fixedExec) storeOne(_ req, st *store.State, m wire.StoreOne) {
	if st.Set.Len() < st.Cfg.X {
		logAdd(st, m.Entry)
	}
}

func (fixedExec) removeOne(_ context.Context, _ req, st *store.State, m wire.RemoveOne) func() {
	logRemove(st, m.Entry)
	return nil
}

// plan: all servers share the identical first-x set, so every peer is
// offered the local set and tops itself up to x. Survivors (which saw
// every update) already agree, so a freshly replaced or joined server
// converges to the shared set from whichever peer sweeps first, and a
// leaver's drops are trivially confirmed by the query phase.
func (fixedExec) plan(v repairView, mv memberView) ([]repairCandidate, []string) {
	return everyPeerPlan(v, mv, true)
}

// accept: store missing entries while below x, the same local rule
// storeOne applies.
func (fixedExec) accept(st *store.State, p wire.RepairPush, _ memberView) int {
	return acceptMissing(st, p.Entries, true, nil)
}
