package main

import (
	"fmt"
	"sync"

	"repro/internal/node"
	"repro/internal/selector"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

// membershipHost is the daemon's node.Host. The node coordinates every
// wire.Join or wire.Leave it receives from the member list here, and
// around its own sweep of a committed update it asks this host to
// resize the daemon's private transport view in two stages:
//
//   - Grow, before the sweep: add a join's new slot, so it is
//     addressable;
//   - Compact, after the sweep: drop a drain's slot and renumber,
//     because the sweep addresses peers in pre-compaction slot space
//     while the leaver is still attached.
type membershipHost struct {
	nd     *node.Node
	client *transport.Client
	sel    *selector.Selector
	tp     *topo.Topology // nil when -topology unset
	// drained is closed when this daemon commits its own drain; main
	// treats it like SIGTERM, so the final durable snapshot doubles as
	// the escrow of anything no survivor could safely accept.
	drained chan struct{}
	once    sync.Once
}

func newMembershipHost(nd *node.Node, client *transport.Client, sel *selector.Selector, tp *topo.Topology) *membershipHost {
	h := &membershipHost{nd: nd, client: client, sel: sel, tp: tp, drained: make(chan struct{})}
	nd.SetHost(h)
	return h
}

func (h *membershipHost) Members() []string { return h.client.Addrs() }

// Grow extends the view for a join, so this member's rebalance sweep
// can address the new slots.
func (h *membershipHost) Grow(m wire.MembershipUpdate) {
	if m.Leaving >= 0 {
		return
	}
	for h.client.NumServers() < m.NewN && len(m.Addrs) == m.NewN {
		h.client.AddServer(m.Addrs[h.client.NumServers()])
	}
	// Grow the topology BEFORE the rebalance sweep (as the simulator
	// does): with tp.N() == NewN on every member, spread homes are
	// computed under the new count on both the planning and accepting
	// side. Rack assignment for the new ids is the same deterministic
	// round-robin on every daemon.
	if h.tp != nil {
		for h.tp.N() < m.NewN {
			h.tp.Grow(1)
		}
	}
	h.sel.Resize(m.NewN)
}

// Compact shrinks the view after a drain's sweep finished: the leaver's
// slot disappears, higher ids shift down, and this node renumbers itself
// — or, if it is the leaver, starts shutting down.
func (h *membershipHost) Compact(m wire.MembershipUpdate) {
	if m.Leaving < 0 {
		return
	}
	if h.nd.ID() == m.Leaving {
		fmt.Println("plsd: drained out of the cluster; shutting down (data dir is the escrow snapshot)")
		h.once.Do(func() { close(h.drained) })
		return
	}
	// Flush the selector before compacting the client: its route cache
	// holds pre-compaction server ids, and a concurrent peer call that
	// consulted the warm cache after RemoveServer would dial the wrong
	// (renumbered) slot.
	h.sel.Resize(m.NewN)
	// Compact the topology AFTER the sweep (as the simulator does):
	// during the transition the counts disagree, so every member's
	// spread computation falls back to base assignment together; the
	// next repair sweep re-homes once the views converge.
	if h.tp != nil && h.tp.N() > m.NewN {
		h.tp.Compact(m.Leaving)
	}
	h.client.RemoveServer(m.Leaving)
	if id := h.nd.ID(); id > m.Leaving {
		h.nd.SetID(id - 1)
	}
}
