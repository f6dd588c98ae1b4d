package node

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// roundExec implements Round-Robin-y (Secs. 3.4, 5.4): entry v_i lives
// on servers (i mod n)..(i+y-1 mod n), coordinated by head/tail
// position counters, with the Fig. 11 hole-plugging migration on
// deletes. The scheme-specific server messages (RoundRemove, Migrate,
// RemoveAt) are handled here too.
type roundExec struct{}

// roundExt is the Round-Robin strategy state carried in store.State.Ext.
type roundExt struct {
	// head and tail are the sequencer's global position counters into
	// the round-robin sequence (Sec. 5.4), set on rank 0 of the view
	// alone: positions [head, tail) are live.
	head int
	tail int

	// positions records each locally stored entry's round-robin
	// sequence position: the entry at position p lives on servers
	// (p mod n)..(p+y-1 mod n). The Fig. 11 migration keeps this
	// invariant by assigning the hole's position to the migrated
	// replacement.
	positions map[entry.Entry]int

	// migrations tracks in-flight Fig. 11 migrations at the head
	// server: per deleted entry, the replacement R[v], its position,
	// and the count M[v] of migrate requests serviced so far. Only a
	// delete's head server writes it, so it is nil until then.
	migrations map[entry.Entry]*migration
}

type migration struct {
	replacement entry.Entry
	found       bool
	count       int
	headPos     int
}

// roundExtOf returns the key's Round-Robin state, creating it on first
// touch. Must be called with the key locked (inside Update/View).
func roundExtOf(st *store.State) *roundExt {
	ext, ok := st.Ext.(*roundExt)
	if !ok {
		ext = &roundExt{positions: make(map[entry.Entry]int)}
		st.Ext = ext
	}
	return ext
}

func (roundExec) place(r req, m wire.Place) (placePlan, error) {
	if r.v.Self != 0 {
		return placePlan{}, errNotSequencer
	}
	// One broadcast resets the key everywhere and carries the whole
	// list; each server keeps the positions whose window covers it.
	// Positions [0, h) are live once that is acked.
	after := func() {
		r.store.GetOrCreate(m.Key, m.Config).Update(func(st *store.State) {
			ext := roundExtOf(st)
			ext.head, ext.tail = 0, len(m.Entries)
			logCounters(st, ext.head, ext.tail)
		})
	}
	return placePlan{share: wire.StoreBatch(m), target: everyServer, after: after}, nil
}

// errNotSequencer refuses a Round-y update at a rank but 0, the key's
// sequencer (Sec. 5.4's "server 1").
var errNotSequencer = errors.New("node: Round-y update must be sent to a coordinator, rank 0")

func (roundExec) add(ctx context.Context, r req, ks *store.KeyState, cfg wire.Config, m wire.Add) wire.Message {
	unlock, err := r.lockUpdates(ctx, m.Key, ks)
	if err != nil {
		return wire.Ack{Err: err.Error()}
	}
	defer unlock()
	numServers := len(r.v.Addrs)
	var pos int
	ks.Update(func(st *store.State) {
		ext := roundExtOf(st)
		pos = ext.tail
		ext.tail++
		logCounters(st, ext.head, ext.tail)
	})
	for j := 0; j < cfg.Y; j++ {
		target := (pos + j) % numServers
		if err := r.callBestEffort(ctx, target, wire.StoreOne{Key: m.Key, Config: cfg, Entry: m.Entry, Pos: pos}); err != nil {
			return wire.Ack{Err: err.Error()}
		}
	}
	return wire.Ack{}
}

func (roundExec) del(ctx context.Context, r req, ks *store.KeyState, cfg wire.Config, m wire.Delete) wire.Message {
	unlock, err := r.lockUpdates(ctx, m.Key, ks)
	if err != nil {
		return wire.Ack{Err: err.Error()}
	}
	defer unlock()
	numServers := len(r.v.Addrs)
	var headPos int
	ks.Update(func(st *store.State) {
		ext := roundExtOf(st)
		headPos = ext.head
		ext.head++
		logCounters(st, ext.head, ext.tail)
	})
	headServer := headPos % numServers
	// Fig. 11: broadcast remove(v, head). The head server must
	// initialize its migration state before any migrate request
	// arrives, so it receives the broadcast first.
	rm := wire.RoundRemove{Key: m.Key, Entry: m.Entry, HeadServer: headServer, HeadPos: headPos}
	if err := r.callBestEffort(ctx, headServer, rm); err != nil {
		return wire.Ack{Err: err.Error()}
	}
	for target := 0; target < numServers; target++ {
		if target == headServer {
			continue
		}
		if err := r.callBestEffort(ctx, target, rm); err != nil {
			return wire.Ack{Err: err.Error()}
		}
	}
	return wire.Ack{}
}

// lockUpdates refuses unless this server is the key's sequencer, then
// waits, off the connection's reader, until no other add or delete of
// the key runs here, and returns the unlock. A delete's Fig. 11
// migration moves the entry at the head position into the hole: an add
// still storing that entry's copies, or a delete moving or deleting it,
// would leave copies outside its window or holders asking for a
// migration no longer pending. Lost counters are rebuilt first.
func (r req) lockUpdates(ctx context.Context, key string, ks *store.KeyState) (unlock func(), err error) {
	if r.v.Self != 0 {
		return nil, errNotSequencer
	}
	if !ks.Serial.TryLock() {
		transport.Detach(ctx) // the lock is held across peer calls
		ks.Serial.Lock()
	}
	if err := r.rebuildCounters(ctx, key, ks); err != nil {
		ks.Serial.Unlock()
		return nil, err
	}
	return ks.Serial.Unlock, nil
}

// rebuildCounters derives head/tail when the sequencer has none: only
// it sets them, and its tail stays 0 until it places or assigns (a
// blank replacement, or the rank a drain made 0). After Fig. 11's
// migration the live positions are exactly [head, tail), so head is the
// lowest position any member holds and tail one past the highest. Every
// member must answer, or a position a silent one holds could be handed
// out twice. The assignment that follows logs the counters.
func (r req) rebuildCounters(ctx context.Context, key string, ks *store.KeyState) error {
	if _, tail := r.Counters(key); tail > 0 {
		return nil
	}
	var low, end int
	for server := range r.v.Addrs {
		reply, err := r.callReply(ctx, server, wire.RepairQuery{Key: key})
		qr, ok := reply.(wire.RepairQueryReply)
		if err == nil && (!ok || qr.Err != "") {
			err = fmt.Errorf("reply %+v", reply)
		}
		if err != nil {
			return fmt.Errorf("node: rebuilding Round-y counters: server %d: %w", server, err)
		}
		if qr.EndPos > 0 {
			if end == 0 || qr.LowPos < low {
				low = qr.LowPos
			}
			end = max(end, qr.EndPos)
		}
	}
	ks.Update(func(st *store.State) {
		if ext := roundExtOf(st); ext.tail == 0 { // unless a place set them meanwhile
			ext.head, ext.tail = low, end
		}
	})
	return nil
}

// span returns the lowest position held and one past the highest, both
// 0 when none is.
func (ext *roundExt) span() (low, end int) {
	for _, p := range ext.positions {
		if end == 0 || p < low {
			low = p
		}
		end = max(end, p+1)
	}
	return low, end
}

// storeBatch keeps this server's share of a placed list: entry v_i
// lives on servers (i mod n)..(i+y-1 mod n), the rule accept evaluates.
// The share is y/n of a list whose strings all view one decoded message
// (wire.Decode), so what is kept is copied out of it.
func (roundExec) storeBatch(r req, st *store.State, entries []string) {
	mv := r.v.rule()
	for i, v := range entries {
		if inWindow(i, st.Cfg.Y, mv.n, mv.self) {
			v = strings.Clone(v)
			st.Set.Add(v)
			roundExtOf(st).positions[v] = i
		}
	}
}

func (roundExec) storeOne(_ req, st *store.State, m wire.StoreOne) {
	logAddAt(st, m.Entry, m.Pos)
}

func (roundExec) removeOne(_ context.Context, _ req, st *store.State, m wire.RemoveOne) func() {
	logRemove(st, m.Entry)
	return nil
}

// handleRoundRemove executes the receiver side of the Fig. 11 protocol:
//
//	remove(v, head) @ server X:
//	  if X == head: M[v] = 0; R[v] = u    // the entry at position head
//	  if v stored here:
//	    delete v; u = migrate_[head](v); store u at v's position
//
// The migrated replacement inherits the deleted entry's round-robin
// position, preserving the invariant that position p's entry lives on
// servers (p mod n)..(p+y-1 mod n) — without it, later deletions would
// retire the wrong copies (the paper's pseudocode leaves this implicit
// in its "plug the hole" picture, Fig. 10).
func (r req) handleRoundRemove(ctx context.Context, m wire.RoundRemove) wire.Message {
	v := m.Entry
	ks, ok := r.store.Get(m.Key)
	if !ok {
		return wire.Ack{}
	}
	var (
		holePos int
		hadPos  bool
		had     bool
	)
	ks.Update(func(st *store.State) {
		ext := roundExtOf(st)
		if r.v.Self == m.HeadServer {
			// Choose the replacement: the local entry at position head.
			// If v itself sits at the head position, the hole is at the
			// head and no migration is needed (found stays false).
			var u entry.Entry
			found := false
			for e, p := range ext.positions {
				if p == m.HeadPos && e != v {
					u, found = e, true
					break
				}
			}
			if ext.migrations == nil {
				ext.migrations = make(map[entry.Entry]*migration)
			}
			ext.migrations[v] = &migration{replacement: u, found: found, headPos: m.HeadPos}
		}
		holePos, hadPos = ext.positions[v]
		had = logRemove(st, v)
	})

	if !had {
		return wire.Ack{}
	}
	reply, err := r.callReply(ctx, m.HeadServer, wire.Migrate{Key: m.Key, Entry: m.Entry})
	if errors.Is(err, transport.ErrServerDown) {
		// The head server is gone: no replacement is available, so the
		// hole stays unplugged (entries on the failed head are lost
		// anyway, Sec. 4.4).
		return wire.Ack{}
	}
	if err != nil {
		return wire.Ack{Err: err.Error()}
	}
	mr, ok := reply.(wire.MigrateReply)
	if !ok {
		return wire.Ack{Err: fmt.Sprintf("node: unexpected migrate reply %T", reply)}
	}
	if mr.Err != "" {
		return wire.Ack{Err: mr.Err}
	}
	if mr.Found && mr.Replacement != m.Entry {
		ks.Update(func(st *store.State) {
			if hadPos {
				logAddAt(st, mr.Replacement, holePos)
			} else {
				logAdd(st, mr.Replacement)
			}
		})
	}
	return wire.Ack{}
}

// handleMigrate executes the head server's migrate(v) procedure of
// Fig. 11: count requests and, once all y holders have migrated, retire
// the replacement entry's original copies — position-checked, so the
// copies that just migrated into the hole survive even when the head
// range overlaps the hole range.
func (r req) handleMigrate(ctx context.Context, m wire.Migrate) wire.Message {
	v := m.Entry
	ks, ok := r.store.Get(m.Key)
	if !ok {
		return wire.MigrateReply{Err: "node: migrate for unknown key"}
	}
	var (
		pending     bool
		done        bool
		replacement entry.Entry
		found       bool
		headPos     int
		cfg         wire.Config
	)
	ks.Update(func(st *store.State) {
		ext := roundExtOf(st)
		mig, ok := ext.migrations[v]
		if !ok {
			return
		}
		pending = true
		mig.count++
		done = mig.count >= st.Cfg.Y
		if done {
			delete(ext.migrations, v)
		}
		replacement, found, headPos = mig.replacement, mig.found, mig.headPos
		cfg = st.Cfg
	})
	if !pending {
		return wire.MigrateReply{Err: "node: migrate without pending removal"}
	}

	if done && found {
		// Remove R[v] from its original y consecutive homes
		// (servers head .. head+y-1, i.e. this server onward).
		for i := 0; i < cfg.Y; i++ {
			target := (r.v.Self + i) % len(r.v.Addrs)
			if err := r.callBestEffort(ctx, target, wire.RemoveAt{Key: m.Key, Entry: replacement, Pos: headPos}); err != nil {
				return wire.MigrateReply{Err: err.Error()}
			}
		}
	}
	return wire.MigrateReply{Replacement: replacement, Found: found}
}

// handleRemoveAt retires one original copy of a migrated replacement:
// the entry is deleted only if it still occupies the given round-robin
// position.
func (n *Node) handleRemoveAt(m wire.RemoveAt) wire.Message {
	v := m.Entry
	ks, ok := n.store.Get(m.Key)
	if !ok {
		return wire.Ack{}
	}
	ks.Update(func(st *store.State) {
		ext := roundExtOf(st)
		if p, ok := ext.positions[v]; ok && p == m.Pos {
			logRemove(st, v)
		}
	})
	return wire.Ack{}
}

// window returns the servers holding round-robin position pos in a
// cluster of n: (pos mod n)..(pos+y-1 mod n). A window wider than the
// cluster (y > n, reachable only by draining below y) is
// unrepresentable until the config itself is re-placed, so it has no
// servers at all.
func window(pos, y, n int) []int {
	if pos < 0 || y <= 0 || y > n {
		return nil
	}
	w := make([]int, y)
	for j := range w {
		w[j] = (pos + j) % n
	}
	return w
}

// inWindow reports whether server self is one of window(pos, y, n).
func inWindow(pos, y, n, self int) bool {
	if pos < 0 || y <= 0 || y > n || self < 0 || self >= n {
		return false
	}
	return (self-pos%n+n)%n < y
}

// plan: each locally held, positioned entry is offered to the other
// servers of its window under mv, position attached — sweeps plug the
// hole at the entry's existing position, exactly like the Fig. 11
// migration, never redrawing it — and dropped when the window no
// longer covers this server. Unpositioned stragglers stay. When y >
// mv.n no window exists: keep everything, offer nothing (accept
// likewise takes nothing).
func (roundExec) plan(v repairView, mv memberView) ([]repairCandidate, []string) {
	y := v.cfg.Y
	if y <= 0 || y > mv.n {
		return nil, nil
	}
	return perEntryHomeCandidates(v.entries, mv, true, func(s string) ([]int, int, bool) {
		pos, ok := v.positions[s]
		if !ok || pos < 0 {
			return nil, 0, false
		}
		return window(pos, y, mv.n), pos, true
	})
}

// accept: store each entry at its pushed position, but only if this
// server is inside the position's window under mv — a corrupt or stale
// push must not violate the placement invariant it exists to restore.
func (roundExec) accept(st *store.State, p wire.RepairPush, mv memberView) int {
	if !p.HasPos || len(p.Positions) != len(p.Entries) {
		return 0
	}
	return acceptMissing(st, p.Entries, false, func(i int, v entry.Entry) bool {
		if p.Positions[i] > uint64(1<<31-1) {
			return false
		}
		pos := int(p.Positions[i])
		if !inWindow(pos, st.Cfg.Y, mv.n, mv.self) {
			return false
		}
		logAddAt(st, v, pos)
		return true
	})
}

// Counters returns the node's Round-Robin (head, tail) for a key: the
// sequencer's counters on rank 0, (0, 0) elsewhere.
func (n *Node) Counters(key string) (head, tail int) {
	ks, ok := n.store.Get(key)
	if !ok {
		return 0, 0
	}
	ks.View(func(st *store.State) {
		if ext, ok := st.Ext.(*roundExt); ok {
			head, tail = ext.head, ext.tail
		}
	})
	return head, tail
}
