package node

import (
	"context"
	"hash/fnv"

	"repro/internal/store"
	"repro/internal/wire"
)

// partExec implements the KeyPartition baseline (Fig. 1 center):
// traditional hashing, where the whole entry set lives on the single
// server the key hashes to. It is not a partial-lookup strategy — the
// paper's conclusion contrasts against exactly this design.
type partExec struct{}

func (partExec) place(r req, m wire.Place) (placePlan, error) {
	return placePlan{share: wire.StoreBatch(m), target: PartitionServer(m.Key, len(r.v.Addrs))}, nil
}

func (partExec) add(ctx context.Context, r req, _ *store.KeyState, cfg wire.Config, m wire.Add) wire.Message {
	return r.ackCall(ctx, PartitionServer(m.Key, len(r.v.Addrs)), wire.StoreOne{Key: m.Key, Config: cfg, Entry: m.Entry})
}

func (partExec) del(ctx context.Context, r req, _ *store.KeyState, cfg wire.Config, m wire.Delete) wire.Message {
	return r.ackCall(ctx, PartitionServer(m.Key, len(r.v.Addrs)), wire.RemoveOne{Key: m.Key, Config: cfg, Entry: m.Entry})
}

func (partExec) storeBatch(_ req, st *store.State, entries []string) {
	addAll(st, entries)
}

func (partExec) storeOne(_ req, st *store.State, m wire.StoreOne) {
	logAdd(st, m.Entry)
}

func (partExec) removeOne(_ context.Context, _ req, st *store.State, m wire.RemoveOne) func() {
	logRemove(st, m.Entry)
	return nil
}

// plan: the baseline keeps one unreplicated copy on the key's home
// server. Under an unchanged membership the home plans nothing — if it
// dies its entries are gone, there is no donor. (This is the decay the
// paper's conclusion argues against; the repair benchmark shows it.)
// The home moves with the member count's mod-n, so when mv makes some
// other server the home the whole local set is offered to it and
// dropped here — the baseline's total re-partition cost, which the
// membership benchmark contrasts with MultiProbe.
func (partExec) plan(v repairView, mv memberView) ([]repairCandidate, []string) {
	if len(v.entries) == 0 || mv.n <= 0 {
		return nil, nil
	}
	home := PartitionServer(v.key, mv.n)
	if home == mv.self {
		return nil, nil
	}
	return []repairCandidate{{target: home, entries: v.entries}}, v.entries
}

// accept: only the key's home server under mv may store entries;
// pushes to anyone else are dropped.
func (partExec) accept(st *store.State, p wire.RepairPush, mv memberView) int {
	if mv.n <= 0 || PartitionServer(st.Key, mv.n) != mv.self {
		return 0
	}
	return acceptMissing(st, p.Entries, false, nil)
}

// PartitionServer returns the single server responsible for a key
// under the traditional hashing baseline (Fig. 1 center).
func PartitionServer(key string, n int) int {
	if n <= 0 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(n))
}
