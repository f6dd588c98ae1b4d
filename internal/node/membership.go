package node

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/store"
	"repro/internal/wire"
)

// Dynamic membership. A MembershipUpdate commits a one-node transition
// (a join or a drain) cluster-wide; on receipt every member runs a
// rebalance sweep — the anti-entropy machinery of repair.go pointed at
// a planned topology change instead of a failure. The same disciplines
// carry over verbatim:
//
//   - No RNG. Plans move existing entries at existing positions, so a
//     seeded lookup stream reads byte-identically before and after a
//     rebalance, and join-then-drain returns the cluster to exactly
//     the state it started in.
//   - Everything through logAdd/logRemove inside Update, so moved
//     entries are WAL-logged and a coordinator crash mid-rebalance
//     recovers to a state the next sweep completes from.
//
// Rank space: plans are computed against the post-change membership.
// During a drain the leaver is still physically attached (its slot is
// compacted only after every member acked), so a post-change rank r
// maps to transport slot r when r < leaving and r+1 otherwise; during
// a join ranks and slots coincide. memberChange carries the mapping.

// MembershipManager serves cluster-level join/drain requests arriving
// over the wire (KindJoin / KindLeave). The host that owns the member
// list — cluster.Cluster in simulations, the plsd daemon's controller
// on TCP — installs one on its node via SetMembership.
type MembershipManager interface {
	// Join admits the server at addr and returns the committed update
	// (its Addrs give the joiner the full member list).
	Join(ctx context.Context, addr string) (wire.MembershipUpdate, error)
	// Leave drains the given server and removes it from the cluster.
	Leave(ctx context.Context, server int) error
}

// memberChange is a committed transition in post-change rank space.
type memberChange struct {
	epoch   uint64
	newN    int
	leaving int // pre-change slot of the leaver, -1 for a join
}

// slotOf maps a post-change rank to the transport slot it occupies
// while the transition is in flight (the leaver still attached).
func (mc memberChange) slotOf(rank int) int {
	if mc.leaving < 0 || rank < mc.leaving {
		return rank
	}
	return rank + 1
}

// rankOf maps a transport slot to its post-change rank; -1 for the
// leaver, which has no place in the new membership.
func (mc memberChange) rankOf(slot int) int {
	if mc.leaving < 0 {
		return slot
	}
	switch {
	case slot == mc.leaving:
		return -1
	case slot < mc.leaving:
		return slot
	default:
		return slot - 1
	}
}

func validateMembershipUpdate(m wire.MembershipUpdate) error {
	switch {
	case m.OldN < 1 || m.NewN < 1:
		return fmt.Errorf("node: membership update with empty cluster (oldN=%d newN=%d)", m.OldN, m.NewN)
	case m.Leaving >= 0:
		if m.Leaving >= m.OldN || m.NewN != m.OldN-1 || len(m.Joined) != 0 {
			return fmt.Errorf("node: malformed leave update (oldN=%d newN=%d leaving=%d joined=%v)",
				m.OldN, m.NewN, m.Leaving, m.Joined)
		}
	default:
		if m.NewN != m.OldN+len(m.Joined) || len(m.Joined) == 0 {
			return fmt.Errorf("node: malformed join update (oldN=%d newN=%d joined=%v)", m.OldN, m.NewN, m.Joined)
		}
		for i, s := range m.Joined {
			if s != m.OldN+i {
				return fmt.Errorf("node: join update with non-contiguous slots %v", m.Joined)
			}
		}
	}
	return nil
}

// RebalanceStats summarizes one member's rebalance sweep.
type RebalanceStats struct {
	// Epoch is the membership epoch the sweep committed.
	Epoch uint64
	// Keys is the number of keys examined; MovedKeys counts keys for
	// which at least one entry moved or was dropped.
	Keys      int
	MovedKeys int
	// Queries and Pushes count rebalance messages sent.
	Queries int
	Pushes  int
	// Moved counts entries accepted by receivers; Dropped counts local
	// copies released — always after a surviving copy was confirmed
	// (seen on a target, or accepted by one).
	Moved   int
	Dropped int
}

// ErrMembershipConflict refuses a membership update whose epoch this
// member has already committed to a different transition: two
// coordinators chose the same next epoch. MembershipAckErr recovers it
// from the refusal's Ack, across the wire too.
var ErrMembershipConflict = errors.New("node: membership conflict")

// sameTransition reports whether a and b commit the same change.
func sameTransition(a, b wire.MembershipUpdate) bool {
	return a.OldN == b.OldN && a.NewN == b.NewN && a.Leaving == b.Leaving &&
		slices.Equal(a.Joined, b.Joined) && slices.Equal(a.Addrs, b.Addrs)
}

// MembershipAckErr returns the error a member's reply to a
// MembershipUpdate carries: nil for a clean ack, one that errors.Is
// matches to ErrMembershipConflict for a conflict refusal.
func MembershipAckErr(reply wire.Message) error {
	ack, ok := reply.(wire.Ack)
	if !ok || ack.Err == "" {
		return nil
	}
	if rest, ok := strings.CutPrefix(ack.Err, ErrMembershipConflict.Error()); ok {
		return fmt.Errorf("%w%s", ErrMembershipConflict, rest)
	}
	return errors.New(ack.Err)
}

// handleMembershipUpdate commits a transition on this member: adopt
// the epoch, let the host adjust its transport view, then sweep every
// key synchronously — the Ack tells the coordinator this member has
// finished moving its share. An update below the current epoch, or the
// committed transition again, is a replayed broadcast and acks as a
// no-op; a different transition under the current epoch is refused
// with ErrMembershipConflict.
func (n *Node) handleMembershipUpdate(ctx context.Context, m wire.MembershipUpdate) wire.Message {
	if err := validateMembershipUpdate(m); err != nil {
		return wire.Ack{Err: err.Error()}
	}
	for {
		cur := n.applied.Load()
		if m.Epoch > epochOf(cur) {
			if n.applied.CompareAndSwap(cur, &m) {
				break
			}
			continue
		}
		if cur != nil && m.Epoch == cur.Epoch && !sameTransition(m, *cur) {
			return wire.Ack{Err: fmt.Sprintf("%v: epoch %d committed oldN=%d newN=%d leaving=%d joined=%v, refused oldN=%d newN=%d leaving=%d joined=%v",
				ErrMembershipConflict, m.Epoch, cur.OldN, cur.NewN, cur.Leaving, cur.Joined, m.OldN, m.NewN, m.Leaving, m.Joined)}
		}
		return wire.Ack{} // already applied (double join, re-broadcast)
	}
	n.peersMu.RLock()
	hook := n.memberHook
	n.peersMu.RUnlock()
	if hook != nil {
		hook(m)
	}
	stats := n.Rebalance(ctx, m)
	n.lastRebalance.Store(&stats)
	n.peersMu.RLock()
	applied := n.appliedHook
	n.peersMu.RUnlock()
	if applied != nil {
		applied(m)
	}
	return wire.Ack{}
}

// Rebalance runs this member's share of a committed transition: every
// key in sorted order (the same determinism contract as repair
// sweeps), planned per scheme against the post-change membership.
func (n *Node) Rebalance(ctx context.Context, m wire.MembershipUpdate) RebalanceStats {
	stats := RebalanceStats{Epoch: m.Epoch}
	mc := memberChange{epoch: m.Epoch, newN: m.NewN, leaving: m.Leaving}
	for _, it := range n.sortedKeys() {
		stats.Keys++
		n.rebalanceKey(ctx, it.key, it.ks, mc, &stats)
	}
	return stats
}

// rebalanceKey moves one key's local share: the scheme's plan under
// the post-change membership, pushed like a repair sweep, then local
// copies the new placement no longer assigns here are released — but
// only once a surviving copy is confirmed (seen on a target, or
// accepted by one). Unconfirmed entries stay put: on a drain they ride
// out in the leaver's final snapshot (the operator's escrow) rather
// than be destroyed — a sole RandomServer-x copy on a leaver whose
// peers are all at capacity is the concrete case.
func (n *Node) rebalanceKey(ctx context.Context, key string, ks *store.KeyState, mc memberChange, stats *RebalanceStats) {
	mv := memberView{self: mc.rankOf(n.ID()), n: mc.newN, tp: n.Topology()}
	view := viewKey(key, ks)
	push, drops := execFor(view.cfg.Scheme).plan(view, mv)

	safe := make(map[string]bool)
	x := n.transferKey(ctx, view, push, mv, mc.slotOf,
		func(t transfer) wire.Message {
			return wire.RebalancePush{
				Key: key, Config: view.cfg, Entries: t.entries,
				Positions: t.positions, HasPos: t.hasPos, HCount: t.hCount,
				Epoch: mc.epoch, NewN: mc.newN, Leaving: mc.leaving,
			}
		}, safe)
	stats.Queries += x.queries
	stats.Pushes += x.pushes
	stats.Moved += x.moved
	moved := x.moved > 0

	if len(drops) > 0 {
		dropped := 0
		ks.Update(func(st *store.State) {
			for _, s := range drops {
				if safe[s] && logRemove(st, s) {
					dropped++
				}
			}
		})
		if dropped > 0 {
			if err := ks.WaitDurable(); err == nil {
				stats.Dropped += dropped
				moved = true
			}
		}
	}
	if moved {
		stats.MovedKeys++
	}
}

// handleRebalancePush applies one transfer under the post-change view
// the push self-describes. The epoch ordering is deliberately loose in
// the forward direction: during a broadcast, members that already
// swept push to members that have not yet seen their own update, so a
// future epoch must be accepted; only pushes from an epoch this member
// has already superseded are rejected.
func (n *Node) handleRebalancePush(m wire.RebalancePush) wire.Message {
	if m.NewN < 1 {
		return wire.RepairPushReply{Err: "node: rebalance push with empty cluster"}
	}
	if cur := n.MemberEpoch(); m.Epoch < cur {
		return wire.RepairPushReply{Err: fmt.Sprintf("node: stale rebalance push (epoch %d < %d)", m.Epoch, cur)}
	}
	// Once the host has compacted this epoch's transition, our id is
	// already a post-change rank: mapping it through rankOf again would
	// mis-rank us (or mistake us for the departed leaver) when a slower
	// member's same-epoch push arrives after our renumbering.
	compacted := m.Epoch > 0 && m.Epoch == n.compactedEpoch.Load()
	if !compacted && m.Leaving >= 0 && n.ID() == m.Leaving {
		return wire.RepairPushReply{Err: "node: rebalance push addressed to the leaver"}
	}
	mv := memberView{self: n.ID(), n: m.NewN, tp: n.Topology()}
	if !compacted {
		mv.self = memberChange{leaving: m.Leaving}.rankOf(n.ID())
	}
	if mv.self < 0 || mv.self >= m.NewN {
		return wire.RepairPushReply{Err: fmt.Sprintf("node: rebalance push outside membership (rank %d of %d)", mv.self, m.NewN)}
	}
	t := transfer{entries: m.Entries, positions: m.Positions, hasPos: m.HasPos, hCount: m.HCount}
	return n.acceptPush("rebalance", m.Key, m.Config, t, mv)
}

// handleJoin admits a new member on behalf of a remote joiner; the
// reply is the committed MembershipUpdate (whose Addrs carry the full
// post-join member list), or an error Ack when no manager is
// installed or admission failed.
func (n *Node) handleJoin(ctx context.Context, m wire.Join) wire.Message {
	n.peersMu.RLock()
	mgr := n.membership
	n.peersMu.RUnlock()
	if mgr == nil {
		return wire.Ack{Err: "node: no membership manager installed"}
	}
	if m.Addr == "" {
		return wire.Ack{Err: "node: join with empty address"}
	}
	update, err := mgr.Join(ctx, m.Addr)
	if err != nil {
		return wire.Ack{Err: "node: join: " + err.Error()}
	}
	return update
}

// handleLeave drains a member on behalf of a remote operator.
func (n *Node) handleLeave(ctx context.Context, m wire.Leave) wire.Message {
	n.peersMu.RLock()
	mgr := n.membership
	n.peersMu.RUnlock()
	if mgr == nil {
		return wire.Ack{Err: "node: no membership manager installed"}
	}
	if err := mgr.Leave(ctx, m.Server); err != nil {
		return wire.Ack{Err: "node: leave: " + err.Error()}
	}
	return wire.Ack{}
}

// SetMembership installs the host's membership manager, making this
// node able to serve Join/Leave requests from the wire.
func (n *Node) SetMembership(m MembershipManager) {
	n.peersMu.Lock()
	n.membership = m
	n.peersMu.Unlock()
}

// OnMembershipChange installs a hook run when a MembershipUpdate
// commits on this node, before its rebalance sweep — the host's chance
// to resize its transport view (the plsd daemon re-points its client
// at the new address list here) so the sweep sees the new topology.
func (n *Node) OnMembershipChange(hook func(wire.MembershipUpdate)) {
	n.peersMu.Lock()
	n.memberHook = hook
	n.peersMu.Unlock()
}

// OnMembershipApplied installs a hook run after this node's rebalance
// sweep for a committed update finishes, just before it acks. The
// sweep addresses peers in pre-compaction slot space (the leaver still
// attached), so a host that owns its own transport view — the plsd
// daemon — must wait until here to drop the leaver's slot, renumber
// itself, and, if it is the leaver, begin its own shutdown.
func (n *Node) OnMembershipApplied(hook func(wire.MembershipUpdate)) {
	n.peersMu.Lock()
	n.appliedHook = hook
	n.peersMu.Unlock()
}

// SetID renumbers the node after the host compacts transport slots
// (a drain removes the leaver's slot, shifting higher ids down).
func (n *Node) SetID(id int) {
	n.peersMu.Lock()
	n.id.Store(int64(id))
	n.peersMu.Unlock()
}

// MarkCompacted records that the host has applied the given epoch's
// slot compaction to its transport view (and renumbered this node via
// SetID). From here on, same-epoch rebalance pushes treat this node's
// id as already being in post-change rank space.
func (n *Node) MarkCompacted(epoch uint64) {
	n.compactedEpoch.Store(epoch)
}

// MemberEpoch returns the last membership epoch this node committed.
func (n *Node) MemberEpoch() uint64 { return epochOf(n.applied.Load()) }

// epochOf is the epoch of a committed update, 0 before the first.
func epochOf(m *wire.MembershipUpdate) uint64 {
	if m == nil {
		return 0
	}
	return m.Epoch
}

// LastRebalance returns the stats of the node's most recent rebalance
// sweep, or false if it has never rebalanced.
func (n *Node) LastRebalance() (RebalanceStats, bool) {
	p := n.lastRebalance.Load()
	if p == nil {
		return RebalanceStats{}, false
	}
	return *p, true
}
