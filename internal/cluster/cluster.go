// Package cluster assembles n lookup servers with failure injection and
// metric snapshots. New calls the nodes in process; NewWired builds
// each as plsd does (NewMember), listening on loopback. Either way all
// traffic suffers the faults of one transport.Chaos, which consumes no
// randomness while none are configured, and each node counts the
// messages it handles: the paper's meter.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Cluster is a set of n lookup servers.
type Cluster struct {
	chaos *transport.Chaos
	nodes []*node.Node
	wired *wired // the members of a cluster NewWired built; nil in process

	mu    sync.Mutex // guards addrs and what host's Grow appends
	addrs []string   // member addresses: sim://i in process

	caller transport.Caller // what clients call: the network, instrumented by EnableTelemetry
	tm     *telemetry.TransportMetrics
	nm     *telemetry.NodeMetrics

	// epoch counts failure-state transitions, for Health: repair sweeps
	// skip converged clusters.
	epoch atomic.Uint64

	// last is the membership update the last Join or Drain committed;
	// Replace hands it to the fresh node.
	last wire.MembershipUpdate
	// joining is the node Join is admitting, until the first member's
	// grow step binds it (see host).
	joining atomic.Pointer[node.Node]
	// nextAddr numbers synthetic joiner addresses, never reusing one.
	nextAddr int

	// base[i] is what slot i's share of the message meter differs by
	// from its current node's Handled count: plus what the nodes Replace
	// swapped out of the slot handled, minus what was handled before the
	// last ResetMessages (see Messages).
	base []int64

	// topo, when set, is the zone topology the network and every node
	// share, kept in step with the member count (fitTopology).
	topo *topo.Topology
}

// New creates a cluster of n servers. Each node receives an independent
// RNG split from rng, so a cluster is fully reproducible from one seed.
func New(n int, rng *stats.RNG) *Cluster {
	c, rngs := newCluster(n, rng)
	for i := 0; i < n; i++ {
		c.nodes[i] = c.newNode(i, rngs[i])
		c.chaos.Bind(i, c.nodes[i])
		c.addrs[i] = fmt.Sprintf("sim://%d", i)
	}
	c.caller = c.chaos
	return c
}

// newCluster returns an n-slot cluster with no servers yet, and its
// nodes' RNGs, split from rng before the network's (the pre-chaos
// layout every golden value derives from).
func newCluster(n int, rng *stats.RNG) (*Cluster, []*stats.RNG) {
	if n <= 0 {
		panic("cluster: New requires n > 0")
	}
	rngs := make([]*stats.RNG, n)
	for i := range rngs {
		rngs[i] = rng.Split()
	}
	return &Cluster{
		chaos:    transport.NewChaos(n, rng.Split()),
		nodes:    make([]*node.Node, n),
		addrs:    make([]string, n),
		base:     make([]int64, n),
		nextAddr: n,
	}, rngs
}

// N returns the number of servers.
func (c *Cluster) N() int { return len(c.nodes) }

// Caller returns what clients reach the servers through, instrumented
// once EnableTelemetry has run; strategy drivers consume it.
func (c *Cluster) Caller() transport.Caller { return c.caller }

// EnableTelemetry instruments the cluster into reg: per-server calls,
// errors (injected faults included) and latency of client traffic,
// each node's per-op counts, and per-server entry/key gauges (the
// runtime analogue of the paper's unfairness input, Eq. 1). Call it
// before issuing traffic; it returns the transport metrics.
func (c *Cluster) EnableTelemetry(reg *telemetry.Registry) *telemetry.TransportMetrics {
	if c.tm != nil {
		return c.tm // already instrumented
	}
	n := len(c.nodes)
	c.tm = telemetry.NewTransportMetrics(reg, "transport", n)
	c.caller = transport.Instrument(c.caller, c.tm)
	c.nm = telemetry.NewNodeMetrics(reg, n)
	for _, nd := range c.nodes {
		nd.Instrument(c.nm)
	}
	// The gauge vectors cover the current members, joiners included.
	perNode := func(f func(*node.Node) int) func() []int64 {
		return func() []int64 {
			out := make([]int64, len(c.nodes))
			for i, nd := range c.nodes {
				out[i] = int64(f(nd))
			}
			return out
		}
	}
	reg.NewGaugeVecFunc("node.entries", perNode((*node.Node).EntryCount))
	reg.NewGaugeVecFunc("node.keys", perNode((*node.Node).KeyCount))
	return c.tm
}

// Chaos returns the in-process network all traffic traverses: latency,
// drops and partitions are set there.
func (c *Cluster) Chaos() *transport.Chaos { return c.chaos }

// SetTopology attaches a zone topology, covering exactly the current
// members, to the network (zone latency and partitions) and every node
// (spread placement): one instance, as zone-spread placement needs. It
// consumes no randomness.
func (c *Cluster) SetTopology(tp *topo.Topology) error {
	if tp != nil && tp.N() != len(c.nodes) {
		return fmt.Errorf("cluster: topology covers %d servers, cluster has %d", tp.N(), len(c.nodes))
	}
	c.topo = tp
	c.chaos.SetTopology(tp)
	for _, nd := range c.nodes {
		nd.SetTopology(tp)
	}
	return nil
}

// Topology returns the attached zone topology, or nil.
func (c *Cluster) Topology() *topo.Topology { return c.topo }

// Node returns server i, for white-box inspection in tests and metrics.
func (c *Cluster) Node(i int) *node.Node { return c.nodes[i] }

// Fail marks server i as failed: subsequent calls to it return
// transport.ErrServerDown.
func (c *Cluster) Fail(i int) {
	c.chaos.SetDown(i, true)
	c.epoch.Add(1)
}

// Recover brings server i back. Its state is whatever it held when it
// failed; the paper's strategies do not re-synchronize recovered
// servers.
func (c *Cluster) Recover(i int) {
	c.chaos.SetDown(i, false)
	c.epoch.Add(1)
}

// Restart brings server i back with a slow-start penalty: its next
// slowCalls calls each incur extra latency, modeling a server that is
// up but cold after a restart.
func (c *Cluster) Restart(i, slowCalls int, extra time.Duration) {
	c.chaos.SlowStart(i, slowCalls, extra)
	c.chaos.SetDown(i, false)
	c.epoch.Add(1)
}

// Replace tears server i down permanently and installs a fresh, empty
// node in its place — the kill/replace churn of a real deployment,
// where a dead machine is swapped for a blank one and everything it
// stored is lost; in a wired cluster a new member serves at the dead
// one's address, with a fresh data directory. The caller supplies the
// new node's RNG, so the cluster's seed stream is never perturbed. The
// new node is up, repair re-populates it, and it takes the committed
// membership epoch.
func (c *Cluster) Replace(i int, rng *stats.RNG) *node.Node {
	var nd *node.Node
	if c.wired != nil {
		nd = c.replaceMember(i, rng)
	} else {
		nd = c.newNode(i, rng)
		c.chaos.Bind(i, nd)
	}
	c.base[i] += c.nodes[i].Handled()
	if c.last.Epoch > 0 {
		nd.Handle(context.Background(), c.last) // an empty node has nothing to sweep
		c.base[i]--                             // adopting the epoch is not traffic
	}
	// The topology is keyed by server id, so the replacement inherits
	// the dead server's zone — but the fresh node must re-learn the
	// shared instance, or its spread-mode home computations diverge
	// from the rest of the cluster (regression-tested in zone_test.go).
	nd.SetTopology(c.topo)
	c.nodes[i] = nd
	c.chaos.SetDown(i, false)
	c.epoch.Add(1)
	return nd
}

// Health is the node.RepairHealth the cluster's failure injection
// drives: presumed-dead is failed, and the epoch advances on every
// failure-state transition.
type Health struct{ c *Cluster }

// Health returns the cluster's repair health view.
func (c *Cluster) Health() Health { return Health{c} }

// PresumedDead reports, per server, whether it is currently failed.
func (h Health) PresumedDead() []bool {
	out := make([]bool, h.c.N())
	for i := range out {
		out[i] = h.c.chaos.Down(i)
	}
	return out
}

// FailureEpoch returns the failure-transition counter.
func (h Health) FailureEpoch() uint64 { return h.c.epoch.Load() }

// Alive reports whether server i is operational.
func (c *Cluster) Alive(i int) bool { return !c.chaos.Down(i) }

// AliveCount returns the number of operational servers.
func (c *Cluster) AliveCount() int { return c.N() - c.chaos.DownCount() }

// Snapshot returns a copy of each server's local entry set for a key
// (including failed servers' frozen state). Snapshots bypass the
// transport so they never perturb message counters.
func (c *Cluster) Snapshot(key string) []*entry.Set {
	out := make([]*entry.Set, len(c.nodes))
	for i, nd := range c.nodes {
		out[i] = nd.LocalSet(key)
	}
	return out
}

// TotalStorage returns the combined number of entries stored across all
// servers for a key: the paper's storage-cost metric (Sec. 4.1).
func (c *Cluster) TotalStorage(key string) int {
	total := 0
	for _, nd := range c.nodes {
		total += nd.LocalSet(key).Len()
	}
	return total
}

// Messages returns the total number of messages processed by all
// servers: the paper's update-overhead metric (Sec. 6.4), summed over
// what each node handled, a message it sent itself included.
func (c *Cluster) Messages() int64 {
	var total int64
	for i := range c.nodes {
		total += c.ProcessedBy(i)
	}
	return total
}

// ProcessedBy returns the number of messages slot server has processed
// since the last reset, by its node and by those it replaced, for
// per-server load analyses (hot-spot experiments).
func (c *Cluster) ProcessedBy(server int) int64 {
	if server < 0 || server >= len(c.nodes) {
		return 0
	}
	return c.base[server] + c.nodes[server].Handled()
}

// ResetMessages zeroes the message counters (e.g. after placement, so
// an experiment counts update traffic only).
func (c *Cluster) ResetMessages() {
	for i, nd := range c.nodes {
		c.base[i] = -nd.Handled()
	}
}

// MemberEpoch returns the number of committed membership transitions.
func (c *Cluster) MemberEpoch() uint64 { return c.last.Epoch }

// Addrs returns a copy of the current member address list: in a wired
// cluster the servers' real addresses.
func (c *Cluster) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.addrs...)
}

// Join admits a new server with a synthesized address. See JoinAddr.
func (c *Cluster) Join(ctx context.Context, rng *stats.RNG) (*node.Node, error) {
	return c.JoinAddr(ctx, fmt.Sprintf("sim://%d", c.nextAddr), rng)
}

// JoinAddr admits a new server at addr (in a wired cluster, at the
// address it listens on) into the next slot: the highest slot
// coordinates, every member commits the update in ascending slot order
// and rebalances its share of every key before acking, so when JoinAddr
// returns every scheme's placement invariant holds at the new size. A
// down member fails the join there; the node is returned if it was
// bound. The caller supplies the joiner's RNG, as with Replace.
// Membership operations must not run concurrently with each other.
func (c *Cluster) JoinAddr(ctx context.Context, addr string, rng *stats.RNG) (*node.Node, error) {
	if c.wired != nil {
		return c.joinMember(ctx, rng)
	}
	nd := c.newNode(len(c.nodes), rng)
	c.joining.Store(nd)
	err := c.change(ctx, len(c.nodes)-1, wire.Join{Addr: addr})
	if c.joining.Swap(nil) != nil {
		return nil, err
	}
	// New failure picture (one more member): epoch-gated repair must
	// rescan.
	c.epoch.Add(1)
	return nd, err
}

// Drain removes server i gracefully: the highest other slot coordinates,
// the leaver rebalances first (handing its share to the surviving homes
// and dropping only copies with a confirmed survivor), then every
// survivor in ascending order, and only after every ack is the slot
// physically compacted — higher ids shift down by one and the affected
// nodes are renumbered. The drained node is returned still holding
// whatever could not be safely handed off (the operator's escrow; see
// docs/OPERATIONS.md). A down leaver fails the drain before anyone
// commits: that is what Replace + repair are for.
func (c *Cluster) Drain(ctx context.Context, i int) (*node.Node, error) {
	coord := len(c.nodes) - 1
	if coord == i && coord > 0 {
		coord--
	}
	if err := c.change(ctx, coord, wire.Leave{Server: i}); err != nil {
		return nil, err
	}
	leaver := c.nodes[i]
	c.chaos.Remove(i)
	fitTopology(c.topo, c.last)
	c.mu.Lock()
	c.nodes = slices.Delete(c.nodes, i, i+1)
	c.addrs = slices.Delete(c.addrs, i, i+1)
	c.base = slices.Delete(c.base, i, i+1)
	c.mu.Unlock()
	if w := c.wired; w != nil { // each member renumbered itself
		m := w.members[i]
		w.members = slices.Delete(w.members, i, i+1)
		w.client.RemoveServer(i)
		w.err = errors.Join(w.err, m.Close(ctx)) // its log keeps the escrow
	} else {
		for s := i; s < len(c.nodes); s++ {
			c.nodes[s].SetID(s)
			c.nodes[s].Attach(c.chaos.Origin(s))
			c.chaos.Bind(s, c.nodes[s])
		}
	}
	c.epoch.Add(1)
	return leaver, nil
}

// change sends a Join or Leave through the cluster caller to member
// coord, which coordinates it, and records the update it committed.
func (c *Cluster) change(ctx context.Context, coord int, msg wire.Message) error {
	reply, err := c.caller.Call(ctx, coord, msg)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	m, ok := reply.(wire.MembershipUpdate)
	if !ok {
		ack, _ := reply.(wire.Ack)
		return fmt.Errorf("cluster: %s", ack.Err)
	}
	c.last = m
	return nil
}

// newNode returns an in-process node for slot i that reaches its peers
// through the network.
func (c *Cluster) newNode(i int, rng *stats.RNG) *node.Node {
	nd := node.New(i, rng)
	nd.SetHost(host{c})
	nd.Attach(c.chaos.Origin(i))
	if c.nm != nil {
		nd.Instrument(c.nm)
	}
	return nd
}

// host is every in-process node's node.Host: the nodes share the
// cluster's one view, as they share one process (a wired Member keeps
// its own). Join and Leave reach a cluster through Join and Drain,
// which stage the joiner and compact the view; one sent to a node
// directly would leave that view behind.
type host struct{ c *Cluster }

func (h host) Members() []string { return h.c.Addrs() }

// Grow binds the joiner JoinAddr staged, in the first member's grow
// step, so every member's sweep can address its slot.
func (h host) Grow(m wire.MembershipUpdate) {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	nd := c.joining.Load()
	if nd == nil || len(c.nodes) >= m.NewN {
		return
	}
	fitTopology(c.topo, m)
	nd.SetTopology(c.topo)
	c.nodes = append(c.nodes, nd)
	c.chaos.Add(nd)
	c.addrs = append(c.addrs, m.Addrs[len(c.addrs)])
	c.base = append(c.base, 0)
	c.nextAddr++
	c.joining.Store(nil) // last, so the joiner's Swap sees the rest
}

// Compact does nothing: a member still sweeping addresses the shared
// view in pre-change slots, so Drain compacts it once every member has
// acked.
func (host) Compact(wire.MembershipUpdate) {}
