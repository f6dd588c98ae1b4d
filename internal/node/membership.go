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
// Views: a node derives its post-change view from its pre-change one
// and the update alone (view.next), its rank found by its address. A
// member publishes it as it commits, before its sweep; a leaver serves
// under its pre-change view until its handoff is done. The sweep plans
// under the post-change view and calls through the view that names
// every member it must reach: a drain's pre-change one, or a join's
// post-change one.

// Host gives a node the caller each of its views addresses peers
// through: a cluster.View, in process, in a wired cluster and in plsd
// alike, which keeps the member list and selector the callers are over.
type Host interface {
	// Apply adopts v and returns the caller that reaches v.Addrs by
	// rank, numbered so for as long as anyone holds it. A drained
	// node's v, which has no rank, gets none.
	Apply(v View) transport.Caller
}

// transition is the membership update a node committed last, with the
// view it makes (to); swept closes once its rebalance sweep has
// finished, with unfinished set if that was a leaver's sweep some of
// whose messages went unanswered.
type transition struct {
	update     wire.MembershipUpdate
	to         *view
	swept      chan struct{}
	unfinished bool
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
// the epoch, publish the post-change view (see Views above), sweep
// every key synchronously — the Ack tells the coordinator this member
// has finished moving its share. A leaver publishes its view, which has
// no rank, only after its sweep; one whose sweep left a message
// unanswered may hold the only copy of what it failed to hand off: it
// replies with an error instead and stays as it was. The committed
// transition again (a coordinator's retry, a double join) acks once
// that first sweep has finished, or re-runs an unfinished one: plans
// push only what is missing. Anything else at or below the committed
// epoch is refused with ErrMembershipConflict, and so is an update that
// neither names this member nor drains it.
func (n *Node) handleMembershipUpdate(ctx context.Context, m wire.MembershipUpdate) wire.Message {
	if err := validateMembershipUpdate(m); err != nil {
		return wire.Ack{Err: err.Error()}
	}
	if n.host == nil {
		return wire.Ack{Err: "node: no membership host installed"}
	}
	from := n.cur.Load()
	next := &transition{update: m, to: from.next(m), swept: make(chan struct{})}
	if next.to.Self < 0 && m.Leaving != from.Self {
		return wire.Ack{Err: fmt.Sprintf("node: membership update epoch %d names no rank for member %d", m.Epoch, from.Self)}
	}
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
		if n.applied.CompareAndSwap(cur, next) {
			break
		}
	}
	via := from
	if next.to.Self >= 0 {
		if to := n.adopt(next.to); len(to.Addrs) > len(from.Addrs) {
			via = to
		}
	}
	stats := n.sweep(ctx, next, via, nil)
	n.lastRebalance.Store(&stats)
	if next.to.Self < 0 {
		if next.unfinished = stats.Unanswered > 0; next.unfinished {
			close(next.swept)
			return wire.Ack{Err: fmt.Sprintf("node: drain handoff: %d messages unanswered", stats.Unanswered)}
		}
		n.adopt(next.to)
	}
	close(next.swept)
	return wire.Ack{}
}

// adopt publishes a copy of v as the node's view, with the caller its
// host gives for it, and returns the copy.
func (n *Node) adopt(v *view) *view {
	pub := &view{View: v.View, peers: n.host.Apply(v.View)}
	n.cur.Store(pub)
	return pub
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

// coordinate builds a transition from this node's member list under
// its committed epoch + 1, commits it, and replies with it — or with an
// error Ack. One change at a time is coordinated per node; a second
// coordinator that picks the same epoch is refused by every member that
// committed the first (ErrMembershipConflict).
func (n *Node) coordinate(ctx context.Context, op string, build func(addrs []string) (wire.MembershipUpdate, error)) wire.Message {
	if n.host == nil {
		return wire.Ack{Err: "node: no membership host installed"}
	}
	transport.Detach(ctx) // the lock is held across peer calls
	n.coordinating.Lock()
	defer n.coordinating.Unlock()
	r := req{n, n.cur.Load()}
	m, err := build(r.v.Addrs)
	if err == nil {
		m.Epoch = n.MemberEpoch() + 1
		err = r.commit(ctx, m)
	}
	if err != nil {
		return wire.Ack{Err: "node: " + op + ": " + err.Error()}
	}
	return m
}

// commit delivers m to every member in one order and stops at the first
// that does not ack. The leaver goes first: its handoff must land before
// anyone else commits, and a leaver that cannot sweep stops the change
// there. The other pre-change members follow in ascending rank order,
// this node last among them, and a joiner comes last, through the view
// this node's own commit published, which names it.
func (r req) commit(ctx context.Context, m wire.MembershipUpdate) error {
	self, joiner := r.v.Self, len(r.v.Addrs)
	order := make([]int, 0, joiner+1)
	if m.Leaving >= 0 {
		order = append(order, m.Leaving)
	}
	for s := range r.v.Addrs {
		if s != self && s != m.Leaving {
			order = append(order, s)
		}
	}
	if self != m.Leaving {
		order = append(order, self)
	}
	if m.Leaving < 0 {
		order = append(order, joiner)
	}
	for _, s := range order {
		if s == joiner {
			r.v = r.cur.Load()
		}
		reply, err := r.callReply(ctx, s, m)
		if err == nil {
			err = MembershipAckErr(reply)
		}
		if err != nil {
			return fmt.Errorf("member %d: %w", s, err)
		}
	}
	return nil
}

// SetHost installs the node's membership host and publishes v, the
// view the node starts with, with the caller h gives for it (see
// Host). It must be called before the node serves traffic.
func (n *Node) SetHost(h Host, v View) {
	n.host = h
	n.adopt(&view{View: v})
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
