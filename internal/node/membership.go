package node

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Dynamic membership. A MembershipUpdate commits a one-node transition
// (a join or a drain) cluster-wide; on receipt every member runs a
// rebalance: repair.go's sweep carrying the transition, so it plans
// under the post-change view and releases what moved away. The same
// disciplines carry over verbatim:
//
//   - No RNG. Plans move existing entries at existing positions, so a
//     seeded lookup stream reads byte-identically before and after a
//     rebalance, and join-then-drain returns the cluster to exactly
//     the state it started in.
//   - Everything through logAdd/logRemove inside Update, so moved
//     entries are WAL-logged and a coordinator crash mid-rebalance
//     recovers to a state the next sweep completes from.
//
// Rank space: a node derives its post-change view from the update
// alone. Its rank is its pre-change slot with the leaver's removed
// (rankAfter), recorded at commit; the cluster size is len(Addrs); its
// topology is fitted with topo.Resize. During a drain the leaver is
// still physically attached (a member's view drops its slot only after
// that member's own sweep), so a post-change rank r maps to transport
// slot r when r < leaving and r+1 otherwise; during a join ranks and
// slots coincide (transition.slotOf).

// Host owns a node's own view of the member list (a cluster.View,
// in process, in a wired cluster and in plsd alike): its transport
// view and selector. A node that receives a wire.Join or wire.Leave
// coordinates the change from its host's member list, and every node
// calls its host around its own sweep of a committed update.
type Host interface {
	// Members returns the current member addresses, in slot order.
	Members() []string
	// Grow runs once before this node's rebalance sweep for m: a join's
	// new slots must be addressable by then.
	Grow(m wire.MembershipUpdate)
	// Compact runs after this node's sweep for m, before it acks. The
	// sweep addresses peers in pre-change slots, so a host drops a
	// drain's slot, and renumbers the node with SetID, only here.
	Compact(m wire.MembershipUpdate)
}

// transition is the membership update a node committed last, with the
// node's post-change rank, recorded at commit from its pre-change slot
// (-1 on the leaver); swept closes once its rebalance sweep has
// finished, with unfinished set if that was a leaver's sweep some of
// whose messages went unanswered.
type transition struct {
	update     wire.MembershipUpdate
	rank       int
	swept      chan struct{}
	unfinished bool
}

// slotOf maps a post-change rank to the transport slot it occupies
// while the transition is in flight (the leaver still attached).
func (t *transition) slotOf(rank int) int {
	if l := t.update.Leaving; l >= 0 && rank >= l {
		return rank + 1
	}
	return rank
}

// rankAfter maps pre-change slot id to its post-change rank under a
// change whose leaver is leaving (-1 for a join): -1 for the leaver,
// which has no place in the new membership, and higher slots shift
// down by one.
func rankAfter(id, leaving int) int {
	switch {
	case leaving < 0 || id < leaving:
		return id
	case id == leaving:
		return -1
	default:
		return id - 1
	}
}

// validateMembershipUpdate refuses an update that names no member, an
// empty address, or a leaver outside the pre-change slots
// 0..len(Addrs).
func validateMembershipUpdate(m wire.MembershipUpdate) error {
	switch {
	case len(m.Addrs) == 0:
		return errors.New("node: membership update with no members")
	case slices.Contains(m.Addrs, ""):
		return fmt.Errorf("node: membership update with an empty address %q", m.Addrs)
	case m.Leaving < -1 || m.Leaving > len(m.Addrs):
		return fmt.Errorf("node: membership update leaving slot %d of %d", m.Leaving, len(m.Addrs)+1)
	}
	return nil
}

// ErrMembershipConflict refuses a membership update that does not
// follow this member's committed one: a different transition under the
// committed epoch (two coordinators chose the same next epoch), or any
// transition under an older epoch (a coordinator behind the cluster,
// such as a restarted daemon, whose members' epochs live only in
// memory). MembershipAckErr recovers it from the refusal's Ack, across
// the wire too.
var ErrMembershipConflict = errors.New("node: membership conflict")

// sameTransition reports whether a and b commit the same change.
func sameTransition(a, b wire.MembershipUpdate) bool {
	return a.Epoch == b.Epoch && a.Leaving == b.Leaving && slices.Equal(a.Addrs, b.Addrs)
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
// the epoch with its post-change rank, let the host grow its transport
// view, fit the topology to the change, sweep every key
// synchronously, let the host compact — the Ack tells the coordinator
// this member has finished moving its share. A leaver whose sweep left
// a message unanswered may hold the only copy of what it failed to hand
// off: it replies with an error instead, compacting nothing. The
// committed transition again (a coordinator's retry, a double join)
// acks once that first sweep has finished, or re-runs an unfinished
// one: plans push only what is missing. Anything else at or below the
// committed epoch is refused with ErrMembershipConflict.
func (n *Node) handleMembershipUpdate(ctx context.Context, m wire.MembershipUpdate) wire.Message {
	if err := validateMembershipUpdate(m); err != nil {
		return wire.Ack{Err: err.Error()}
	}
	next := &transition{update: m, rank: rankAfter(n.ID(), m.Leaving), swept: make(chan struct{})}
	rerun := false
	for {
		cur := n.applied.Load()
		if cur == nil && m.Epoch == 0 {
			return wire.Ack{} // epoch 0 is the empty history
		}
		if cur == nil || m.Epoch > cur.update.Epoch {
			if n.applied.CompareAndSwap(cur, next) {
				break
			}
			continue
		}
		c := cur.update
		if !sameTransition(m, c) {
			return wire.Ack{Err: fmt.Sprintf("%v: committed epoch %d leaving=%d addrs=%v, refused epoch %d leaving=%d addrs=%v",
				ErrMembershipConflict, c.Epoch, c.Leaving, c.Addrs, m.Epoch, m.Leaving, m.Addrs)}
		}
		transport.Detach(ctx)
		select {
		case <-cur.swept:
		case <-ctx.Done():
			return wire.Ack{Err: "node: membership replay: " + ctx.Err().Error()}
		}
		if !cur.unfinished {
			return wire.Ack{}
		}
		if rerun = n.applied.CompareAndSwap(cur, next); rerun {
			break
		}
	}
	host := n.host()
	if host != nil && !rerun { // a re-run's host has grown already
		host.Grow(m)
	}
	n.SetTopology(n.Topology().Resize(len(m.Addrs), m.Leaving))
	stats := n.sweep(ctx, next, nil)
	n.lastRebalance.Store(&stats)
	if next.unfinished = next.rank < 0 && stats.Unanswered > 0; next.unfinished {
		close(next.swept)
		return wire.Ack{Err: fmt.Sprintf("node: drain handoff: %d messages unanswered", stats.Unanswered)}
	}
	if host != nil {
		host.Compact(m)
	}
	close(next.swept)
	return wire.Ack{}
}

// handleJoin coordinates admitting the server at m.Addr into the next
// slot; the reply is the committed update, whose Addrs give the joiner
// the full member list.
func (n *Node) handleJoin(ctx context.Context, m wire.Join) wire.Message {
	return n.coordinate(ctx, "join", func(addrs []string) (wire.MembershipUpdate, error) {
		switch {
		case m.Addr == "":
			return wire.MembershipUpdate{}, errors.New("empty address")
		case slices.Contains(addrs, m.Addr):
			return wire.MembershipUpdate{}, fmt.Errorf("address %q is already a member", m.Addr)
		}
		return wire.MembershipUpdate{Leaving: -1, Addrs: append(slices.Clip(addrs), m.Addr)}, nil
	})
}

// handleLeave coordinates draining member m.Server out of the cluster;
// the reply is the committed update.
func (n *Node) handleLeave(ctx context.Context, m wire.Leave) wire.Message {
	return n.coordinate(ctx, "leave", func(addrs []string) (wire.MembershipUpdate, error) {
		oldN := len(addrs)
		switch {
		case m.Server < 0 || m.Server >= oldN:
			return wire.MembershipUpdate{}, fmt.Errorf("server %d out of range (cluster size %d)", m.Server, oldN)
		case oldN == 1:
			return wire.MembershipUpdate{}, errors.New("refusing to drain the last member")
		}
		return wire.MembershipUpdate{Leaving: m.Server, Addrs: slices.Delete(slices.Clone(addrs), m.Server, m.Server+1)}, nil
	})
}

// coordinate builds a transition from the host's member list under this
// node's committed epoch + 1, commits it, and replies with it — or with
// an error Ack. One change at a time is coordinated per node; a second
// coordinator that picks the same epoch is refused by every member that
// committed the first (ErrMembershipConflict).
func (n *Node) coordinate(ctx context.Context, op string, build func(addrs []string) (wire.MembershipUpdate, error)) wire.Message {
	host := n.host()
	if host == nil {
		return wire.Ack{Err: "node: no membership host installed"}
	}
	transport.Detach(ctx) // the lock is held across peer calls
	n.coordinating.Lock()
	defer n.coordinating.Unlock()
	m, err := build(host.Members())
	if err == nil {
		m.Epoch = n.MemberEpoch() + 1
		err = n.commit(ctx, m)
	}
	if err != nil {
		return wire.Ack{Err: "node: " + op + ": " + err.Error()}
	}
	return m
}

// commit delivers m to every member in one order and stops at the first
// that does not ack. The leaver goes first: its handoff must land while
// every view still addresses its slot, and a leaver that cannot sweep
// stops the change before anyone else commits. The other pre-change
// members follow in ascending slot order, this node last among them —
// on a drain its own commit may compact its view, which would
// mis-address any slot contacted afterwards — and a joiner comes last:
// this node's commit grows its view to address it.
func (n *Node) commit(ctx context.Context, m wire.MembershipUpdate) error {
	self, oldN := n.ID(), len(m.Addrs)-1 // a join's joiner is the last address
	if m.Leaving >= 0 {
		oldN = len(m.Addrs) + 1
	}
	order := make([]int, 0, oldN+1)
	if m.Leaving >= 0 {
		order = append(order, m.Leaving)
	}
	for s := 0; s < oldN; s++ {
		if s != self && s != m.Leaving {
			order = append(order, s)
		}
	}
	if self != m.Leaving {
		order = append(order, self)
	}
	if m.Leaving < 0 {
		order = append(order, oldN) // the joiner
	}
	for _, s := range order {
		reply, err := n.callReply(ctx, s, m)
		if err == nil {
			err = MembershipAckErr(reply)
		}
		if err != nil {
			return fmt.Errorf("member %d: %w", s, err)
		}
	}
	return nil
}

// SetHost installs the node's membership host (see Host).
func (n *Node) SetHost(h Host) {
	n.peersMu.Lock()
	n.memberHost = h
	n.peersMu.Unlock()
}

func (n *Node) host() Host {
	n.peersMu.RLock()
	defer n.peersMu.RUnlock()
	return n.memberHost
}

// SetID renumbers the node after its host compacted a drain's slot away
// (higher ids shift down by one). Same-epoch rebalance pushes still in
// flight from slower members are judged under the rank the node
// recorded at commit, not this id (see handleRepairPush).
func (n *Node) SetID(id int) {
	n.peersMu.Lock()
	n.id.Store(int64(id))
	n.peersMu.Unlock()
}

// MemberEpoch returns the last membership epoch this node committed.
func (n *Node) MemberEpoch() uint64 {
	if t := n.applied.Load(); t != nil {
		return t.update.Epoch
	}
	return 0
}

// LastRebalance returns the stats of the node's most recent rebalance
// sweep, or false if it has never rebalanced.
func (n *Node) LastRebalance() (SweepStats, bool) {
	p := n.lastRebalance.Load()
	if p == nil {
		return SweepStats{}, false
	}
	return *p, true
}
