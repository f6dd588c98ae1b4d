package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/selector"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

// membershipController is the daemon-side MembershipManager: whichever
// plsd receives a wire.Join or wire.Leave coordinates that transition
// for the whole cluster. It mirrors what cluster.Cluster does for
// simulations, but against a transport view every daemon owns
// privately — so commits are applied to the local client in two
// stages, hooked off the node:
//
//   - before the local sweep (OnMembershipChange): grow the view so a
//     join's new slot is addressable;
//   - after the local sweep (OnMembershipApplied): drop a leaver's
//     slot and renumber, because the sweep addresses peers in
//     pre-compaction slot space while the leaver is still attached.
//
// Membership operations must be serialized through one coordinator at
// a time; the mutex protects this daemon. A second coordinator that
// picks the same epoch is refused by every member that committed the
// first (node.ErrMembershipConflict), so the two cannot diverge
// silently; a replayed update acks as a no-op.
type membershipController struct {
	mu     sync.Mutex
	nd     *node.Node
	client *transport.Client
	sel    *selector.Selector // nil when -peer-selector=false
	tp     *topo.Topology     // nil when -topology unset
	// drained is closed when this daemon commits its own drain; main
	// treats it like SIGTERM, so the final durable snapshot doubles as
	// the escrow of anything no survivor could safely accept.
	drained chan struct{}
	once    sync.Once
}

func newMembershipController(nd *node.Node, client *transport.Client, sel *selector.Selector, tp *topo.Topology) *membershipController {
	c := &membershipController{
		nd:      nd,
		client:  client,
		sel:     sel,
		tp:      tp,
		drained: make(chan struct{}),
	}
	nd.OnMembershipChange(c.preSweep)
	nd.OnMembershipApplied(c.postSweep)
	nd.SetMembership(c)
	return c
}

// preSweep grows the local transport view for a join, so this member's
// rebalance sweep can address the new slots. Idempotent against the
// coordinator having grown its own view already.
func (c *membershipController) preSweep(m wire.MembershipUpdate) {
	if m.Leaving >= 0 {
		return
	}
	for c.client.NumServers() < m.NewN && len(m.Addrs) == m.NewN {
		c.client.AddServer(m.Addrs[c.client.NumServers()])
	}
	// Grow the topology BEFORE the rebalance sweep (mirroring
	// cluster.JoinAddr): with tp.N() == NewN on every member, spread
	// homes are computed under the new count on both the planning and
	// accepting side. Rack assignment for the new ids is the same
	// deterministic round-robin on every daemon.
	if c.tp != nil {
		for c.tp.N() < m.NewN {
			c.tp.Grow(1)
		}
	}
	if c.sel != nil {
		c.sel.Resize(m.NewN)
	}
}

// postSweep compacts the local view after a drain's sweep finished:
// the leaver's slot disappears, higher ids shift down, and this node
// renumbers itself — or, if it is the leaver, starts shutting down.
func (c *membershipController) postSweep(m wire.MembershipUpdate) {
	if m.Leaving < 0 {
		return
	}
	if c.nd.ID() == m.Leaving {
		fmt.Println("plsd: drained out of the cluster; shutting down (data dir is the escrow snapshot)")
		c.once.Do(func() { close(c.drained) })
		return
	}
	// Flush the selector before compacting the client: its route cache
	// holds pre-compaction server ids, and a concurrent peer call that
	// consulted the warm cache after RemoveServer would dial the wrong
	// (renumbered) slot.
	if c.sel != nil {
		c.sel.Resize(m.NewN)
	}
	// Compact the topology AFTER the sweep (mirroring cluster.Drain):
	// during the transition the counts disagree, so every member's
	// spread computation falls back to base assignment together; the
	// next repair sweep re-homes once the views converge.
	if c.tp != nil && c.tp.N() > m.NewN {
		c.tp.Compact(m.Leaving)
	}
	c.client.RemoveServer(m.Leaving)
	if id := c.nd.ID(); id > m.Leaving {
		c.nd.SetID(id - 1)
	}
	c.nd.MarkCompacted(m.Epoch)
}

// Join coordinates admitting the server at addr: commit locally first
// (growing this view and sweeping), then broadcast to every other
// member — joiner included — and require every ack, so the caller
// knows the whole cluster converged.
func (c *membershipController) Join(ctx context.Context, addr string) (wire.MembershipUpdate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := c.client.Addrs()
	for _, a := range addrs {
		if a == addr {
			return wire.MembershipUpdate{}, fmt.Errorf("address %q is already a member", addr)
		}
	}
	oldN := len(addrs)
	update := wire.MembershipUpdate{
		Epoch:   c.nd.MemberEpoch() + 1,
		OldN:    oldN,
		NewN:    oldN + 1,
		Joined:  []int{oldN},
		Leaving: -1,
		Addrs:   append(append([]string(nil), addrs...), addr),
	}
	if err := c.commit(ctx, update, nil); err != nil {
		return wire.MembershipUpdate{}, err
	}
	return update, nil
}

// Leave coordinates a graceful drain: the leaver sweeps first (pushing
// its entries onto survivors while every view still addresses it),
// then the survivors, this daemon last.
func (c *membershipController) Leave(ctx context.Context, server int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	oldN := c.client.NumServers()
	if server < 0 || server >= oldN {
		return fmt.Errorf("server %d out of range (cluster size %d)", server, oldN)
	}
	if oldN == 1 {
		return fmt.Errorf("refusing to drain the last member")
	}
	addrs := c.client.Addrs()
	update := wire.MembershipUpdate{
		Epoch:   c.nd.MemberEpoch() + 1,
		OldN:    oldN,
		NewN:    oldN - 1,
		Leaving: server,
		Addrs:   append(append([]string(nil), addrs[:server]...), addrs[server+1:]...),
	}
	return c.commit(ctx, update, &server)
}

// commit drives one update to every member. The leaver (if any) goes
// first — its handoff must land while everyone still addresses its
// slot — then the rest ascending, with this daemon handled locally and
// last: its own commit may compact the client, which would mis-address
// any slot contacted afterwards.
func (c *membershipController) commit(ctx context.Context, update wire.MembershipUpdate, leaver *int) error {
	self := c.nd.ID()
	order := make([]int, 0, update.OldN+len(update.Joined))
	if leaver != nil && *leaver != self {
		order = append(order, *leaver)
	}
	limit := update.OldN
	if update.Leaving < 0 {
		// Grow this view before broadcasting so the joiner's slot is
		// addressable (preSweep would do the same, but only when our own
		// local commit runs — last).
		limit = update.NewN
		for c.client.NumServers() < limit && len(update.Addrs) >= limit {
			c.client.AddServer(update.Addrs[c.client.NumServers()])
		}
	}
	for s := 0; s < limit; s++ {
		if s == self || (leaver != nil && s == *leaver) {
			continue
		}
		order = append(order, s)
	}
	for _, s := range order {
		if err := c.callUpdate(ctx, s, update); err != nil {
			return fmt.Errorf("member %d (%s): %w", s, update.Addrs[min(s, len(update.Addrs)-1)], err)
		}
	}
	// Local commit last, through the same handler every remote member
	// runs (epoch CAS, hooks, sweep).
	if err := node.MembershipAckErr(c.nd.Handle(ctx, update)); err != nil {
		return fmt.Errorf("local commit: %w", err)
	}
	return nil
}

func (c *membershipController) callUpdate(ctx context.Context, server int, update wire.MembershipUpdate) error {
	cctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	reply, err := c.client.Call(cctx, server, update)
	if err != nil {
		return err
	}
	return node.MembershipAckErr(reply)
}

// joinCluster runs the joiner side of plsd -join: ask the coordinator
// to admit our advertised address and return the committed member
// list. The local server must already be listening — the coordinator's
// broadcast sweeps push entries at us before this returns.
func joinCluster(ctx context.Context, coordinator, selfAddr string, timeout time.Duration) (wire.MembershipUpdate, error) {
	boot := transport.NewClient([]string{coordinator}, transport.WithTimeout(timeout))
	defer boot.Close()
	cctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	reply, err := boot.Call(cctx, 0, wire.Join{Addr: selfAddr})
	if err != nil {
		return wire.MembershipUpdate{}, fmt.Errorf("join via %s: %w", coordinator, err)
	}
	switch r := reply.(type) {
	case wire.MembershipUpdate:
		return r, nil
	case wire.Ack:
		return wire.MembershipUpdate{}, fmt.Errorf("join via %s: %s", coordinator, r.Err)
	default:
		return wire.MembershipUpdate{}, fmt.Errorf("join via %s: unexpected reply %T", coordinator, reply)
	}
}
