// Package cluster assembles n lookup servers with failure injection and
// metric snapshots. New calls the nodes in process; NewWired builds
// each as plsd does (NewMember), listening on loopback. Either way all
// traffic suffers the faults of one transport.Chaos, which consumes no
// randomness while none are configured, each node keeps its own view
// of the members, and each node counts the messages it handles: the
// paper's meter.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Cluster is a set of n lookup servers.
type Cluster struct {
	chaos   *transport.Chaos
	members []*Member // by slot
	view    Peers     // the cluster's own member list: sim://i in process
	wired   *wired    // what NewWired adds; nil in process

	caller transport.Caller // what clients call: the view, instrumented by EnableTelemetry
	tm     *telemetry.TransportMetrics
	nm     *telemetry.NodeMetrics

	// epoch counts failure-state transitions, for Health: repair sweeps
	// skip converged clusters.
	epoch atomic.Uint64

	// last is the membership update the last Join or Drain committed;
	// Replace hands it to the fresh node.
	last wire.MembershipUpdate
	// nextAddr numbers synthetic joiner addresses, never reusing one.
	nextAddr int

	// base[i] is what slot i's share of the message meter differs by
	// from its current node's Handled count: plus what the nodes Replace
	// swapped out of the slot handled, minus what was handled before the
	// last ResetMessages (see Messages).
	base []int64

	// topo, when set, is the zone topology the network places its slots
	// by and each new node starts from, kept in step with the members.
	topo *topo.Topology

	err error // what Replace and Drain could not report; Close returns it
}

// New creates a cluster of n servers. Each node receives an independent
// RNG split from rng, so a cluster is fully reproducible from one seed.
func New(n int, rng *stats.RNG) *Cluster {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("sim://%d", i)
	}
	c, _ := newCluster(addrs, nil, rng, nil) // cannot fail in process
	return c
}

// newCluster starts a cluster of servers at addrs, in process or, with
// w set, members serving on lns. Its nodes' RNGs are split from rng
// before the network's: the pre-chaos layout every golden value
// derives from.
func newCluster(addrs []string, lns []net.Listener, rng *stats.RNG, w *wired) (*Cluster, error) {
	n := len(addrs)
	if n <= 0 {
		panic("cluster: New requires n > 0")
	}
	rngs := make([]*stats.RNG, n)
	for i := range rngs {
		rngs[i] = rng.Split()
	}
	c := &Cluster{chaos: transport.NewChaos(n, rng.Split()), wired: w, base: make([]int64, n), nextAddr: n}
	for i, addr := range addrs {
		c.chaos.SetAddr(i, addr)
	}
	if w == nil {
		c.view = c.chaos.View("", addrs)
		c.caller = c.view
	} else {
		client := transport.NewClient(addrs)
		c.view, c.caller = client, c.chaos.Over(client, "")
	}
	for i := range addrs {
		var ln net.Listener
		if lns != nil {
			ln, lns[i] = lns[i], nil // the member's once it starts
		}
		m, err := c.start(i, rngs[i], addrs, ln, nil)
		c.members = append(c.members, m)
		if err != nil {
			return nil, errors.Join(err, c.Close())
		}
	}
	return c, nil
}

// N returns the number of servers.
func (c *Cluster) N() int { return len(c.members) }

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
	n := len(c.members)
	c.tm = telemetry.NewTransportMetrics(reg, "transport", n)
	c.caller = transport.Instrument(c.caller, c.tm)
	c.nm = telemetry.NewNodeMetrics(reg, n)
	for _, m := range c.members {
		m.Node.Instrument(c.nm)
	}
	// The gauge vectors cover the current members, joiners included.
	perNode := func(f func(*node.Node) int) func() []int64 {
		return func() []int64 {
			out := make([]int64, len(c.members))
			for i, m := range c.members {
				out[i] = int64(f(m.Node))
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
// (spread placement), which each fit it to membership changes as they
// commit them. It consumes no randomness.
func (c *Cluster) SetTopology(tp *topo.Topology) error {
	if tp != nil && tp.N() != len(c.members) {
		return fmt.Errorf("cluster: topology covers %d servers, cluster has %d", tp.N(), len(c.members))
	}
	c.topo = tp
	c.chaos.SetTopology(tp)
	for _, m := range c.members {
		m.Node.SetTopology(tp)
	}
	return nil
}

// Topology returns the attached zone topology, or nil.
func (c *Cluster) Topology() *topo.Topology { return c.topo }

// Node returns server i, for white-box inspection in tests and metrics.
func (c *Cluster) Node(i int) *node.Node { return c.members[i].Node }

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

// Replace tears server i down permanently and starts a fresh, empty
// one at its address — the kill/replace churn of a real deployment,
// where a dead machine is swapped for a blank one and everything it
// stored is lost; a wired member gets a fresh data directory. The
// caller supplies the new node's RNG, so the cluster's seed stream is
// never perturbed. The new node is up, repair re-populates it, and it
// takes the committed membership epoch and the cluster's topology (a
// replacement inherits the dead server's zone). Every view then drops
// its connections, so no call meets the dead server's socket; the dead
// node, for whoever still holds it (a repairer), calls through the
// network alone.
func (c *Cluster) Replace(i int, rng *stats.RNG) *node.Node {
	dead, addrs := c.members[i], c.Addrs()
	c.err = errors.Join(c.err, dead.Close(context.Background()))
	dead.Node.Attach(c.chaos.View(dead.Addr, addrs))
	m, err := c.start(i, rng, addrs, nil, c.topo)
	c.err = errors.Join(c.err, err)
	c.base[i] += dead.Node.Handled()
	if c.last.Epoch > 0 {
		m.Node.Handle(context.Background(), c.last) // an empty node has nothing to sweep
		c.base[i]--                                 // adopting the epoch is not traffic
	}
	c.members[i] = m
	c.view.Close()
	for _, o := range c.members {
		o.Peers.Close()
	}
	c.chaos.SetDown(i, false)
	c.epoch.Add(1)
	return m.Node
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
	out := make([]*entry.Set, len(c.members))
	for i, m := range c.members {
		out[i] = m.Node.LocalSet(key)
	}
	return out
}

// TotalStorage returns the combined number of entries stored across all
// servers for a key: the paper's storage-cost metric (Sec. 4.1).
func (c *Cluster) TotalStorage(key string) int {
	total := 0
	for _, m := range c.members {
		total += m.Node.LocalSet(key).Len()
	}
	return total
}

// Messages returns the total number of messages processed by all
// servers: the paper's update-overhead metric (Sec. 6.4), summed over
// what each node handled, a message it sent itself included.
func (c *Cluster) Messages() int64 {
	var total int64
	for i := range c.members {
		total += c.ProcessedBy(i)
	}
	return total
}

// ProcessedBy returns the number of messages slot server has processed
// since the last reset, by its node and by those it replaced, for
// per-server load analyses (hot-spot experiments).
func (c *Cluster) ProcessedBy(server int) int64 {
	if server < 0 || server >= len(c.members) {
		return 0
	}
	return c.base[server] + c.members[server].Node.Handled()
}

// ResetMessages zeroes the message counters (e.g. after placement, so
// an experiment counts update traffic only).
func (c *Cluster) ResetMessages() {
	for i, m := range c.members {
		c.base[i] = -m.Node.Handled()
	}
}

// MemberEpoch returns the number of committed membership transitions.
func (c *Cluster) MemberEpoch() uint64 { return c.last.Epoch }

// Addrs returns a copy of the current member address list: in a wired
// cluster the servers' real addresses.
func (c *Cluster) Addrs() []string { return c.view.Addrs() }

// Join admits a new server with a synthesized address. See JoinAddr.
func (c *Cluster) Join(ctx context.Context, rng *stats.RNG) (*node.Node, error) {
	c.nextAddr++
	return c.JoinAddr(ctx, fmt.Sprintf("sim://%d", c.nextAddr-1), rng)
}

// JoinAddr admits a new server at addr (in a wired cluster, at the
// address it listens on) into the next slot. The joiner starts with the
// post-join member list and topology; the highest slot coordinates,
// every member commits the update in ascending slot order, growing its
// own view, and rebalances its share of every key before acking, so
// when JoinAddr returns every scheme's placement invariant holds at the
// new size. A member that does not ack fails the join there, and the
// joiner is shut down. The caller supplies the joiner's RNG, as with
// Replace. Membership operations must not run concurrently with each
// other.
func (c *Cluster) JoinAddr(ctx context.Context, addr string, rng *stats.RNG) (*node.Node, error) {
	var ln net.Listener
	if c.wired != nil {
		var err error
		if ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		addr = ln.Addr().String()
	}
	i := len(c.members)
	tp := c.topo.Resize(i+1, -1)
	c.chaos.Add(addr, nil) // the sweeps reach the joiner through the network
	c.chaos.SetTopology(tp)
	m, err := c.start(i, rng, append(c.Addrs(), addr), ln, tp)
	if err == nil {
		err = c.change(ctx, i-1, wire.Join{Addr: addr})
	}
	if err != nil {
		c.chaos.Remove(i)
		c.chaos.SetTopology(c.topo)
		return nil, errors.Join(err, m.Close(ctx))
	}
	c.members = append(c.members, m)
	c.view.SetAddrs(append(c.Addrs(), addr))
	c.base = append(c.base, 0)
	c.topo = tp
	// New failure picture (one more member): epoch-gated repair must
	// rescan.
	c.epoch.Add(1)
	return m.Node, nil
}

// Drain removes server i gracefully: the highest other slot coordinates,
// the leaver rebalances first (handing its share to the surviving homes
// and dropping only copies with a confirmed survivor), then every
// survivor in ascending order, each compacting its own view and
// renumbering itself after its sweep. Only after every ack is the
// network's slot compacted — higher ids shift down by one — and the
// leaver shut down. The drained node is returned still holding whatever
// could not be safely handed off (the operator's escrow; see
// docs/OPERATIONS.md). A down leaver fails the drain before anyone
// commits: that is what Replace + repair are for; so does a leaver
// whose handoff went unanswered, until a retry after the fault clears.
func (c *Cluster) Drain(ctx context.Context, i int) (*node.Node, error) {
	coord := len(c.members) - 1
	if coord == i && coord > 0 {
		coord--
	}
	if err := c.change(ctx, coord, wire.Leave{Server: i}); err != nil {
		return nil, err
	}
	m := c.members[i]
	c.chaos.Remove(i)
	c.topo = c.topo.Resize(len(c.members)-1, i)
	c.chaos.SetTopology(c.topo)
	c.members = slices.Delete(c.members, i, i+1)
	c.view.SetAddrs(slices.Delete(c.Addrs(), i, i+1))
	c.base = slices.Delete(c.base, i, i+1)
	c.err = errors.Join(c.err, m.Close(ctx)) // a log keeps the escrow
	c.epoch.Add(1)
	return m.Node, nil
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

// start builds the server for slot i of the members at addrs, with
// topology tp, and puts it on the network: in a wired cluster a member
// serving on ln (on addrs[i] when ln is nil), logging to a fresh
// directory when the cluster keeps them (store.SyncNever survives the
// process crash a test can stage, without a disk's fsync); in process,
// or when the member fails to start (then no call reaches it, as a dead
// one), a node with a view of the network of its own.
func (c *Cluster) start(i int, rng *stats.RNG, addrs []string, ln net.Listener, tp *topo.Topology) (*Member, error) {
	var m *Member
	var err error
	if w := c.wired; w != nil {
		dir := ""
		if w.dataDir != "" {
			dir = filepath.Join(w.dataDir, fmt.Sprintf("node-%d", w.disks))
			w.disks++
		}
		m, err = NewMember(i, rng, addrs, dir, MemberOptions{Listener: ln, Fsync: store.SyncNever, Topology: tp, Chaos: c.chaos})
	}
	if m == nil {
		peers := c.chaos.View(addrs[i], addrs)
		m = &Member{View: NewView(peers, nil), Node: node.New(i, rng), Addr: addrs[i]}
		m.pin = func() transport.Caller { return peers.Pin() }
		m.Node.SetHost(m.View, node.View{Addrs: addrs, Self: i, Topology: tp})
	}
	c.chaos.Bind(i, m.Node)
	if c.nm != nil {
		m.Node.Instrument(c.nm)
	}
	return m, err
}
