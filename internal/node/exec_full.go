package node

import (
	"context"

	"repro/internal/store"
	"repro/internal/wire"
)

// fullExec implements Full Replication (Secs. 3.1, 5.1): every server
// stores every entry, so place/add/delete are unconditional broadcasts
// and the local rules are plain set operations. It is also the fallback
// executor for keys whose config is still schemeless.
type fullExec struct{}

func (fullExec) place(_ req, m wire.Place) (placePlan, error) {
	return placePlan{share: wire.StoreBatch(m), target: everyServer}, nil
}

func (fullExec) add(ctx context.Context, r req, _ *store.KeyState, cfg wire.Config, m wire.Add) wire.Message {
	return r.ackBroadcast(ctx, wire.StoreOne{Key: m.Key, Config: cfg, Entry: m.Entry})
}

func (fullExec) del(ctx context.Context, r req, _ *store.KeyState, cfg wire.Config, m wire.Delete) wire.Message {
	return r.ackBroadcast(ctx, wire.RemoveOne{Key: m.Key, Config: cfg, Entry: m.Entry})
}

func (fullExec) storeBatch(_ req, st *store.State, entries []string) {
	addAll(st, entries)
}

// addAll stores entries in order: a place share that keeps them all.
func addAll(st *store.State, entries []string) {
	for _, v := range entries {
		st.Set.Add(v)
	}
}

func (fullExec) storeOne(_ req, st *store.State, m wire.StoreOne) {
	logAdd(st, m.Entry)
}

func (fullExec) removeOne(_ context.Context, _ req, st *store.State, m wire.RemoveOne) func() {
	logRemove(st, m.Entry)
	return nil
}

// plan: every server must hold every entry, so every peer is offered
// the whole local set (the query phase skips peers that already hold
// it — all of them, short of a replaced server or a joiner).
func (fullExec) plan(v repairView, mv memberView) ([]repairCandidate, []string) {
	return everyPeerPlan(v, mv, false)
}

// accept: store everything not already held.
func (fullExec) accept(st *store.State, p wire.RepairPush, _ memberView) int {
	return acceptMissing(st, p.Entries, false, nil)
}
