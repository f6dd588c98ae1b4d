// Package cluster assembles n lookup server nodes with failure
// injection and metric snapshots: the substrate every simulation runs
// on. New calls the nodes in process. NewWired puts each behind a
// transport.Server on loopback, optionally with a WAL, and slot i of
// the in-process network forwards over one mux client to server i.
// Either way all traffic, client probes and peer messages alike, flows
// through one transport.Chaos, so fault injection, the topology and
// membership are one code path in both modes, and each node counts
// the messages it handles: the paper's meter. With no faults
// configured the network consumes no randomness, so seeded runs are
// unchanged.
package cluster

import (
	"context"
	"errors"
	"fmt"
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
	// wired holds the servers and the mux client of a cluster NewWired
	// built; nil in process.
	wired *wired

	// mu guards the member view the nodes read through host, from their
	// servers' goroutines in a wired cluster: addrs, and what Grow
	// appends.
	mu    sync.Mutex
	addrs []string // member addresses: sim://i in process, unique per member

	// caller is what clients probe through: the network, or — after
	// EnableTelemetry — an instrumented wrapper over it.
	caller transport.Caller
	tm     *telemetry.TransportMetrics
	nm     *telemetry.NodeMetrics

	// epoch counts failure-state transitions (Fail/Recover/Restart/
	// Replace); Health exposes it so repair sweeps can skip converged
	// clusters.
	epoch atomic.Uint64

	// last is the membership update the last successful Join or Drain
	// committed (zero before the first); Replace hands it to the fresh
	// node.
	last wire.MembershipUpdate
	// joining is the node Join is admitting, until the first member's
	// grow step binds it (see host).
	joining atomic.Pointer[node.Node]
	// nextAddr numbers synthetic joiner addresses; it never reuses a
	// drained member's number, so double-join detection stays simple.
	nextAddr int

	// base[i] is what slot i's share of the message meter differs by
	// from its current node's Handled count: plus what the nodes Replace
	// swapped out of the slot handled, minus what was handled before the
	// last ResetMessages (see Messages).
	base []int64

	// topo, when set, is the zone topology shared by the network and
	// every node. Membership operations keep it in step with the member
	// count (Grow/Compact), and Replace re-attaches it to the fresh node
	// so the replacement keeps the dead server's zone.
	topo *topo.Topology
}

// New creates a cluster of n servers. Each node receives an independent
// RNG split from rng, so a cluster is fully reproducible from one seed.
func New(n int, rng *stats.RNG) *Cluster {
	if n <= 0 {
		panic("cluster: New requires n > 0")
	}
	c := &Cluster{
		nodes:    make([]*node.Node, n),
		addrs:    make([]string, n),
		base:     make([]int64, n),
		nextAddr: n,
	}
	for i := 0; i < n; i++ {
		c.nodes[i] = node.New(i, rng.Split())
		c.nodes[i].SetHost(host{c})
		c.addrs[i] = fmt.Sprintf("sim://%d", i)
	}
	// The chaos RNG splits after the node RNGs so node seeds (and every
	// golden value derived from them) match the pre-chaos layout.
	c.chaos = transport.NewChaos(n, rng.Split())
	for i := 0; i < n; i++ {
		c.nodes[i].Attach(c.chaos.Origin(i))
		c.chaos.Bind(i, c.nodes[i])
	}
	c.caller = c.chaos
	return c
}

// N returns the number of servers.
func (c *Cluster) N() int { return len(c.nodes) }

// Caller returns the transport clients reach the servers through (the
// in-process network, instrumented once EnableTelemetry has run);
// strategy drivers consume it.
func (c *Cluster) Caller() transport.Caller { return c.caller }

// EnableTelemetry instruments the cluster into reg: client traffic
// through Caller records per-server calls, errors (including
// chaos-injected faults), and latency histograms; each node counts its
// per-op throughput; and per-server entry/key gauges expose live
// storage and load skew (the runtime analogue of the paper's
// unfairness input, Eq. 1). In a wired cluster reg also shows the
// servers' counts under "server.", summed across them. Call it before
// issuing traffic; it returns the transport metrics for white-box
// assertions in tests.
func (c *Cluster) EnableTelemetry(reg *telemetry.Registry) *telemetry.TransportMetrics {
	if c.tm != nil {
		return c.tm // already instrumented
	}
	n := len(c.nodes)
	c.tm = telemetry.NewTransportMetrics(reg, "transport", n)
	c.caller = transport.Instrument(c.chaos, c.tm)
	c.nm = telemetry.NewNodeMetrics(reg, n)
	for _, nd := range c.nodes {
		nd.Instrument(c.nm)
	}
	if w := c.wired; w != nil {
		// A server takes its metrics before it listens, so the servers
		// have counted into w.metrics from the start; reg reads them.
		for name, n := range map[string]*telemetry.Counter{
			"handled_inline": w.metrics.Inline, "handled_detached": w.metrics.Detached,
			"frames_written": w.metrics.Frames, "writes": w.metrics.Writes,
			"readers_started": w.metrics.ReadersStarted,
		} {
			reg.NewGaugeFunc("server."+name, n.Value)
		}
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

// SetTopology attaches a zone topology to the whole cluster: the chaos
// layer (zone latency, whole-zone partitions) and every node (spread
// placement) share the same instance, the consistency the zone-spread
// mode depends on. The topology must cover exactly the current member
// count. Attaching one consumes no randomness — with a zero latency
// profile, seeded runs are unchanged.
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
// stored is lost. In a wired cluster the new node serves at the dead
// one's address, with a fresh data directory (a failure to open its log
// is Close's error). The caller supplies the
// new node's RNG so the cluster's own seed stream (split once per node
// at New, then once for chaos) is never perturbed and golden seeds stay
// valid. The new node is bound and marked up; anti-entropy repair is
// what re-populates it. It takes the slot's committed membership epoch,
// so it can coordinate the next change.
func (c *Cluster) Replace(i int, rng *stats.RNG) *node.Node {
	nd := c.newNode(i, rng)
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
	if w := c.wired; w != nil {
		w.err = errors.Join(w.err, w.open(w.members[i], nd)) // Close reports it
	}
	c.chaos.Bind(i, c.handler(i))
	c.chaos.SetDown(i, false)
	c.epoch.Add(1)
	return nd
}

// Health is the cluster-driven analogue of the selector scoreboard for
// the repair daemon: presumed-dead tracks injected failures directly
// and the epoch advances on every failure-state transition. It
// satisfies the node.RepairHealth contract.
type Health struct{ c *Cluster }

// Health returns a repair health view backed by the cluster's failure
// injection.
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

// JoinAddr admits a new server at addr into the running cluster: the
// highest slot coordinates the join (see node.Host), the new node takes
// the next slot, every member (new one included) commits the update in
// ascending slot order, and each rebalances its share of every key
// synchronously before acking — when JoinAddr returns, the cluster
// satisfies every scheme's placement invariant at the new size. A down
// member fails the join there; the node is returned if it was bound. The
// caller supplies the joiner's RNG, as with Replace, so the cluster's
// own seed stream is never perturbed.
//
// Membership operations are orchestration-plane: they must not run
// concurrently with each other (they may run alongside lookups, which
// never block on rebalance). In a wired cluster the joiner listens on an
// address of its own, which it joins with instead of addr.
func (c *Cluster) JoinAddr(ctx context.Context, addr string, rng *stats.RNG) (*node.Node, error) {
	nd := c.newNode(len(c.nodes), rng)
	if c.wired != nil {
		var err error
		if addr, err = c.wired.serve(nd); err != nil {
			return nil, err
		}
	}
	c.joining.Store(nd)
	err := c.change(ctx, len(c.nodes)-1, wire.Join{Addr: addr})
	if c.joining.Swap(nil) != nil {
		if c.wired != nil {
			c.wired.remove(len(c.wired.members) - 1)
		}
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
// whatever could not be safely handed off (its final snapshot is the
// operator's escrow; see docs/OPERATIONS.md). A down leaver fails the
// drain before anyone commits: a corpse cannot push its entries, that is
// what Replace + repair are for.
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
	if c.topo != nil {
		c.topo.Compact(i)
	}
	if c.wired != nil {
		c.wired.remove(i)
	}
	c.mu.Lock()
	c.nodes = append(c.nodes[:i], c.nodes[i+1:]...)
	c.addrs = append(c.addrs[:i], c.addrs[i+1:]...)
	c.base = append(c.base[:i], c.base[i+1:]...)
	c.mu.Unlock()
	for s := i; s < len(c.nodes); s++ {
		c.nodes[s].SetID(s)
		c.nodes[s].Attach(c.chaos.Origin(s))
		c.chaos.Bind(s, c.handler(s))
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

// newNode returns a node for slot i that reaches its peers through the
// network, as every member does.
func (c *Cluster) newNode(i int, rng *stats.RNG) *node.Node {
	nd := node.New(i, rng)
	nd.SetHost(host{c})
	nd.Attach(c.chaos.Origin(i))
	if c.nm != nil {
		nd.Instrument(c.nm)
	}
	return nd
}

// handler is what slot i of the in-process network delivers to: its
// node, or in a wired cluster the forwarder to its server.
func (c *Cluster) handler(i int) transport.Handler {
	if c.wired != nil {
		return forward{c.wired.client, i}
	}
	return c.nodes[i]
}

// host is every member's node.Host: the members share the cluster's
// one view. Join and Leave reach a cluster through Join and Drain,
// which stage the joiner and compact the view; one sent to a member
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
	if c.topo != nil {
		// Keep the topology in step with the member count: the joiner
		// goes to the least-populated rack, and spread assignments stay
		// suspended (base fallback) only for the instant the counts
		// disagree.
		c.topo.Grow(1)
		nd.SetTopology(c.topo)
	}
	c.nodes = append(c.nodes, nd)
	c.chaos.Add(c.handler(len(c.nodes) - 1))
	c.addrs = append(c.addrs, m.Addrs[len(c.addrs)])
	c.base = append(c.base, 0)
	c.nextAddr++
	c.joining.Store(nil) // last, so the joiner's Swap sees the rest
}

// Compact does nothing: a member still sweeping addresses the shared
// view in pre-change slots, so Drain compacts it once every member has
// acked.
func (host) Compact(wire.MembershipUpdate) {}
