package node

import (
	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/wire"
)

// WAL record emission for executor mutations. Records describe
// outcomes, never inputs: the entry a reservoir chose to evict, the
// position a round-robin add assigned — decisions the RNG already
// made. Replay (see durable.go) applies them verbatim, so recovered
// state is bit-identical to the pre-crash state without the RNG ever
// being consulted, keeping post-recovery lookups on the node's seeded
// RNG sequence exactly where placement left them.
//
// All helpers must run inside a KeyState.Update callback; they mutate
// the live state and queue the matching record, which Update appends
// to the WAL before the key unlocks. On a volatile store State.Log is
// a no-op and only the mutation happens; replay, which runs before the
// WAL is attached, applies entry records through them for that reason.

// logAdd inserts v into the key's entry set, logging the insertion.
// It reports whether v was newly added.
func logAdd(st *store.State, v entry.Entry) bool {
	if !st.Set.Add(v) {
		return false
	}
	if st.Logging() {
		st.Log(wire.WalStore{Key: st.Key, Entry: v})
	}
	return true
}

// logAddAt inserts v with a Round-Robin position, logging both.
func logAddAt(st *store.State, v entry.Entry, pos int) {
	st.Set.Add(v)
	roundExtOf(st).positions[v] = pos
	if st.Logging() {
		st.Log(wire.WalStore{Key: st.Key, Entry: v, Pos: pos, HasPos: true})
	}
}

// logRemove deletes v from the key's entry set (and its Round-Robin
// position, if the scheme keeps one), logging the removal. It reports
// whether v was present.
func logRemove(st *store.State, v entry.Entry) bool {
	if ext, ok := st.Ext.(*roundExt); ok {
		delete(ext.positions, v)
	}
	if !st.Set.Remove(v) {
		return false
	}
	if st.Logging() {
		st.Log(wire.WalRemove{Key: st.Key, Entry: v})
	}
	return true
}

// logCounters records the Round-Robin coordinator counters' new
// absolute values (absolute, not deltas, so replay is idempotent
// against a snapshot cut anywhere in the stream).
func logCounters(st *store.State, head, tail int) {
	if st.Logging() {
		st.Log(wire.WalCounters{Key: st.Key, Head: head, Tail: tail})
	}
}

// logHCount records the RandomServer system-size counter's new value.
func logHCount(st *store.State, hCount int) {
	if st.Logging() {
		st.Log(wire.WalHCount{Key: st.Key, HCount: hCount})
	}
}
