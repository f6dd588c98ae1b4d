// Package node implements the lookup server: a per-key state machine
// that executes the server-side half of every placement strategy in the
// paper — selective broadcasts for Fixed-x (Sec. 5.2), reservoir-style
// replacement for RandomServer-x (Sec. 5.3), the head/tail counters and
// hole-plugging migration of Round-Robin-y (Sec. 5.4, Figs. 10-11), and
// hash-directed placement for Hash-y (Secs. 3.5, 5.5).
//
// The package is decomposed along the paper's own seams:
//
//   - Node (this file) is the transport-facing shell: message dispatch,
//     peer calls, and telemetry. It owns no key state.
//   - internal/store owns all per-key state, sharded under per-shard
//     locks with copy-on-write snapshots, so traffic on different keys
//     never serializes and partial_lookup reads never block writers.
//   - One executor per placement rule (exec_*.go; Hash-y and
//     MultiProbe-y share one) implements the protocol of its Sec. 5
//     subsection against that store.
//
// A Node is transport-agnostic: it consumes a transport.Caller for peer
// traffic and implements transport.Handler, so the same code runs under
// the in-process simulator and the TCP daemon.
package node

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
	"sync/atomic"
)

// Node is one lookup server. Create it with New, then Attach the peer
// caller before serving traffic.
type Node struct {
	// id is the server's slot. SetID rewrites it, under peersMu, when a
	// drain compacts the slots; request paths load it on its own, and
	// callReply together with peers under that lock.
	id atomic.Int64

	// metrics, when set via Instrument, records per-op throughput.
	// Atomic so instrumentation can be attached to a serving node.
	metrics atomic.Pointer[telemetry.NodeMetrics]

	// rng serializes draws from the node's seeded stream. It is the
	// only lock lookups on warm keys ever take, and only for the
	// handful of sample draws — single-goroutine runs therefore consume
	// the stream in exactly the order the monolithic node did, keeping
	// every golden seed valid.
	rng lockedRNG

	// store owns all per-key state; see package store.
	store *store.Store

	// applied is the last committed membership transition, nil before
	// the first; its update's Epoch is the member epoch (see
	// membership.go).
	applied       atomic.Pointer[transition]
	lastRebalance atomic.Pointer[RebalanceStats]
	// compactedEpoch is the member epoch at this node's last SetID: its
	// host has compacted that transition (the leaver removed, this node
	// renumbered), so its id IS its post-change rank, and same-epoch
	// rebalance pushes still in flight from slower members must not be
	// mapped through rankOf again (see handleRebalancePush).
	compactedEpoch atomic.Uint64
	// coordinating serializes the membership changes this node
	// coordinates (see coordinate).
	coordinating sync.Mutex

	// topol, when set, is the cluster's shared zone topology; the
	// zone-spread placement mode (wire.Config.ZoneSpread) resolves
	// entry homes through it. Like Config.Seed, every member must hold
	// the same topology or spread assignments diverge (DESIGN.md §6,
	// "Zone-spread placement").
	topol atomic.Pointer[topo.Topology]

	// localDeliveries counts the peer messages this node addressed to
	// itself and handled in process (see callReply).
	localDeliveries atomic.Int64

	peersMu    sync.RWMutex
	peers      transport.Caller
	memberHost Host
}

var _ transport.Handler = (*Node)(nil)

// New returns a node with the given id, seeded deterministically from
// seed (each node should get a distinct seed; see stats.RNG.Split).
func New(id int, rng *stats.RNG) *Node {
	n := &Node{
		rng:   lockedRNG{rng: rng},
		store: store.New(),
	}
	n.id.Store(int64(id))
	return n
}

// Attach wires the peer caller the node uses for broadcasts and
// migrations. It must be called before the node serves traffic.
//
// The caller carries the messages addressed to other servers only: one
// the node addresses to itself is handled in process (see callReply)
// and never reaches peers, so whatever wraps it — Chaos faults and
// hop counters, the peer.* metrics, a selector's latency scoreboard, a
// retry layer — does not see or touch this server's messages to itself.
func (n *Node) Attach(peers transport.Caller) {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	n.peers = peers
}

// ID returns the node's server id.
func (n *Node) ID() int { return int(n.id.Load()) }

// SetTopology attaches (or, with nil, detaches) the cluster's shared
// zone topology. Safe to call on a serving node; spread-mode homes are
// resolved against whatever topology is current when a message is
// handled.
func (n *Node) SetTopology(tp *topo.Topology) { n.topol.Store(tp) }

// Topology returns the attached zone topology, or nil.
func (n *Node) Topology() *topo.Topology { return n.topol.Load() }

// Instrument attaches per-op telemetry: the node counts the Place /
// Add / Delete / Lookup requests it handles against its server id. The
// same NodeMetrics is shared by every node of a cluster, giving the
// per-server throughput vectors a snapshot exposes.
func (n *Node) Instrument(m *telemetry.NodeMetrics) { n.metrics.Store(m) }

// recordOp counts one handled client-facing operation; batch envelopes
// count one op per item, so throughput vectors measure keys served, not
// envelopes.
func (n *Node) recordOp(msg wire.Message) {
	m := n.metrics.Load()
	if m == nil {
		return
	}
	id := n.ID()
	switch mm := msg.(type) {
	case wire.Place:
		m.Places.At(id).Inc()
	case wire.Add:
		m.Adds.At(id).Inc()
	case wire.Delete:
		m.Deletes.At(id).Inc()
	case wire.Lookup:
		m.Lookups.At(id).Inc()
	case wire.PlaceBatch:
		m.Places.At(id).Add(int64(len(mm.Items)))
	case wire.AddBatch:
		m.Adds.At(id).Add(int64(len(mm.Items)))
	case wire.LookupBatch:
		m.Lookups.At(id).Add(int64(len(mm.Items)))
	}
}

// Handle implements transport.Handler, dispatching one protocol message.
// Kinds outside wire.ServedInline detach first. Nested peer calls
// (broadcasts, migrations) are issued with no key lock held, so
// self-directed messages re-enter Handle safely.
func (n *Node) Handle(ctx context.Context, msg wire.Message) wire.Message {
	if !wire.ServedInline(msg.Kind()) {
		transport.Detach(ctx)
	}
	n.recordOp(msg)
	switch m := msg.(type) {
	case wire.Place:
		return n.handlePlace(ctx, m)
	case wire.Add:
		return n.handleAdd(ctx, m)
	case wire.Delete:
		return n.handleDelete(ctx, m)
	case wire.Lookup:
		return n.handleLookup(m)
	case wire.PlaceBatch:
		return n.handlePlaceBatch(ctx, m)
	case wire.AddBatch:
		return n.handleAddBatch(ctx, m)
	case wire.LookupBatch:
		return n.handleLookupBatch(m)
	case wire.StoreBatch:
		return n.handleStoreBatch(m)
	case wire.StoreBatches:
		return n.handleStoreBatches(m)
	case wire.StoreOne:
		return n.handleStoreOne(m)
	case wire.RemoveOne:
		return n.handleRemoveOne(ctx, m)
	case wire.RoundRemove:
		return n.handleRoundRemove(ctx, m)
	case wire.RemoveAt:
		return n.handleRemoveAt(m)
	case wire.CounterSync:
		return n.handleCounterSync(m)
	case wire.Migrate:
		return n.handleMigrate(ctx, m)
	case wire.Dump:
		return n.handleDump(m)
	case wire.RepairQuery:
		return n.handleRepairQuery(m)
	case wire.RepairPush:
		return n.handleRepairPush(m)
	case wire.Join:
		return n.handleJoin(ctx, m)
	case wire.Leave:
		return n.handleLeave(ctx, m)
	case wire.MembershipUpdate:
		return n.handleMembershipUpdate(ctx, m)
	case wire.RebalancePush:
		return n.handleRebalancePush(m)
	case wire.Ping:
		return wire.Ack{}
	default:
		return wire.Ack{Err: fmt.Sprintf("node %d: unexpected message kind %d", n.ID(), msg.Kind())}
	}
}

// handlePlace implements the initial server S's role in
// place(v1..vh): a PlaceBatch of one (see place).
func (n *Node) handlePlace(ctx context.Context, m wire.Place) wire.Message {
	return wire.Ack{Err: n.place(ctx, []wire.Place{m})[0]}
}

// handleAdd implements the initial server S's role in add(v) (Sec. 5).
// The stored config (installed by the key's placement) wins over the
// one riding on the message, so a client with a stale config cannot
// fork the key's strategy.
func (n *Node) handleAdd(ctx context.Context, m wire.Add) wire.Message {
	if !entry.Valid(m.Entry) {
		return wire.Ack{Err: "node: add with empty entry"}
	}
	if n.numServers() == 0 {
		return wire.Ack{Err: "node: no peer caller attached"}
	}
	ks := n.store.GetOrCreate(m.Key, m.Config)
	cfg := ks.Config()
	reply := execFor(cfg.Scheme).add(ctx, n, ks, cfg, m)
	return n.flushReply(ks, reply)
}

// handleDelete implements the initial server S's role in delete(v).
func (n *Node) handleDelete(ctx context.Context, m wire.Delete) wire.Message {
	if n.numServers() == 0 {
		return wire.Ack{Err: "node: no peer caller attached"}
	}
	ks := n.store.GetOrCreate(m.Key, m.Config)
	cfg := ks.Config()
	reply := execFor(cfg.Scheme).del(ctx, n, ks, cfg, m)
	return n.flushReply(ks, reply)
}

// sampleScratchPool recycles the index/output buffers a lookup samples
// through. Pooled rather than per-node because the multiplexed
// transport dispatches lookups concurrently; each in-flight lookup
// borrows its own scratch.
var sampleScratchPool = sync.Pool{
	New: func() any { return new(entry.SampleScratch) },
}

// handleLookup answers one partial-lookup probe: up to T entries sampled
// uniformly from the local set ("t randomly selected entries stored on
// the server or all the entries if the total is less than t"). The
// sample is drawn from the key's copy-on-write snapshot, so lookups on
// a warm key take no lock beyond the per-draw RNG lock.
func (n *Node) handleLookup(m wire.Lookup) wire.Message {
	ks, ok := n.store.Get(m.Key)
	if !ok {
		return wire.LookupReply{}
	}
	// The scratch buffers stop each lookup from allocating an index
	// permutation. The reply slice is a fresh copy — it outlives the
	// scratch's reuse.
	sc := sampleScratchPool.Get().(*entry.SampleScratch)
	out := slices.Clone(ks.Snapshot().SampleInto(&n.rng, m.T, sc))
	sampleScratchPool.Put(sc)
	return wire.LookupReply{Entries: out}
}

// errEmptyPlaceEntry refuses a placed list with an empty entry, which
// the entry set cannot hold, before anything is stored or reset.
const errEmptyPlaceEntry = "node: place with empty entry"

func allValid(entries []string) bool {
	for _, v := range entries {
		if !entry.Valid(v) {
			return false
		}
	}
	return true
}

// handleStoreBatch applies a place broadcast: the receiver resets the
// key (config, entry set, strategy state) and stores the
// scheme-dependent local selection of the batch.
func (n *Node) handleStoreBatch(m wire.StoreBatch) wire.Message {
	if !allValid(m.Entries) {
		return wire.Ack{Err: errEmptyPlaceEntry}
	}
	ks := n.store.GetOrCreate(m.Key, m.Config)
	ks.Update(func(st *store.State) {
		// The reset record precedes the executor's own records in the
		// log, so replay clears the key before re-applying the batch's
		// adds — the same order the live path runs in.
		if st.Logging() {
			st.Log(wire.WalReset{Key: m.Key, Config: m.Config})
		}
		st.Cfg = m.Config
		st.Set.Clear()
		st.Ext = nil
		execFor(st.Cfg.Scheme).storeBatch(n, st, m.Entries)
	})
	return n.flushAck(ks)
}

// handleStoreOne applies a single-entry store under the key's
// scheme-specific local rule.
func (n *Node) handleStoreOne(m wire.StoreOne) wire.Message {
	if !entry.Valid(m.Entry) {
		return wire.Ack{Err: "node: store with empty entry"}
	}
	ks := n.store.GetOrCreate(m.Key, m.Config)
	ks.Update(func(st *store.State) {
		execFor(st.Cfg.Scheme).storeOne(n, st, m)
	})
	return n.flushAck(ks)
}

// handleRemoveOne deletes a local copy under the key's scheme-specific
// rule; RandomServer-x may follow up with a replacement search (see
// exec_randomserver.go).
func (n *Node) handleRemoveOne(ctx context.Context, m wire.RemoveOne) wire.Message {
	ks := n.store.GetOrCreate(m.Key, m.Config)
	var after func()
	ks.Update(func(st *store.State) {
		after = execFor(st.Cfg.Scheme).removeOne(ctx, n, st, m)
	})
	if after != nil {
		after()
	}
	return n.flushAck(ks)
}

// handleDump returns the full local set for a key.
func (n *Node) handleDump(m wire.Dump) wire.Message {
	ks, ok := n.store.Get(m.Key)
	if !ok {
		return wire.DumpReply{}
	}
	return wire.DumpReply{Entries: ks.Snapshot().Members()}
}

// LocalSet returns a copy of the node's entry set for a key, for metric
// snapshots that must not perturb message counters. It returns an empty
// set for unknown keys.
func (n *Node) LocalSet(key string) *entry.Set {
	ks, ok := n.store.Get(key)
	if !ok {
		return entry.NewSet(0)
	}
	var c *entry.Set
	ks.View(func(st *store.State) { c = st.Set.Clone() })
	return c
}

// Positions returns a copy of the node's Round-Robin position map for
// a key (empty for other schemes), for invariant checks in tests and
// the plstest harness.
func (n *Node) Positions(key string) map[entry.Entry]int {
	out := make(map[entry.Entry]int)
	ks, ok := n.store.Get(key)
	if !ok {
		return out
	}
	ks.View(func(st *store.State) {
		if ext, ok := st.Ext.(*roundExt); ok {
			for v, p := range ext.positions {
				out[v] = p
			}
		}
	})
	return out
}

// LocalLen returns the number of entries the node stores for a key,
// without copying the set (hot path for time-weighted probes).
func (n *Node) LocalLen(key string) int {
	ks, ok := n.store.Get(key)
	if !ok {
		return 0
	}
	return ks.Len()
}

// EntryCount returns the total number of entries the node stores across
// all keys: the per-server storage gauge from which live load skew (the
// operational analogue of the paper's unfairness input) is computed.
func (n *Node) EntryCount() int { return n.store.EntryCount() }

// KeyCount returns the number of keys the node holds state for.
func (n *Node) KeyCount() int { return n.store.Keys() }

// numServers reads the cluster size from the peer caller.
func (n *Node) numServers() int {
	n.peersMu.RLock()
	defer n.peersMu.RUnlock()
	if n.peers == nil {
		return 0
	}
	return n.peers.NumServers()
}

// callBestEffort sends msg to one peer, treating an unreachable peer
// as a skipped delivery rather than a failure: in the paper's fault
// model a failed server simply loses the entries it would have stored
// ("if a server goes down, we may lose some entries permanently",
// Sec. 4.4), so updates proceed past down replicas.
func (n *Node) callBestEffort(ctx context.Context, server int, msg wire.Message) error {
	err := n.call(ctx, server, msg)
	if errors.Is(err, transport.ErrServerDown) {
		return nil
	}
	return err
}

// call sends msg to one peer and surfaces any application-level error
// carried in the Ack.
func (n *Node) call(ctx context.Context, server int, msg wire.Message) error {
	reply, err := n.callReply(ctx, server, msg)
	if err != nil {
		return err
	}
	if ack, ok := reply.(wire.Ack); ok && ack.Err != "" {
		return fmt.Errorf("node: server %d: %s", server, ack.Err)
	}
	return nil
}

// callReply sends msg to one server and returns its reply. A message
// the node addresses to itself does not leave the process: Handle runs
// on the calling goroutine with the caller's ctx — cancellation carries,
// and transport.Detach finds the request already detached — and returns
// the same reply, durability wait included. It is still a processed
// message in the paper's cost model (Sec. 6.4 counts a broadcast's
// message to the sender), counted in LocalDeliveries where no transport
// sees it. id and peers are read together under the lock SetID and
// Attach write them under. A host that compacts its slot view in place
// (cluster.Drain, plsd's Compact) still does that and SetID in two
// steps: an update overlapping them can address one message by the
// wrong numbering, which is the repair sweep's to mend, as it was.
func (n *Node) callReply(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	n.peersMu.RLock()
	self, peers := n.ID(), n.peers
	n.peersMu.RUnlock()
	if peers == nil {
		return nil, fmt.Errorf("node %d: no peer caller attached", self)
	}
	if server != self {
		return peers.Call(ctx, server, msg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err // as every Caller abandons a cancelled request
	}
	n.localDeliveries.Add(1)
	if m := n.metrics.Load(); m != nil {
		m.LocalDeliveries.At(self).Inc()
	}
	return n.Handle(ctx, msg), nil
}

// LocalDeliveries returns how many peer messages the node has handled
// in process because it had addressed them to itself. A host that
// meters processed messages at its transport (cluster.Cluster) adds
// them in.
func (n *Node) LocalDeliveries() int64 { return n.localDeliveries.Load() }

// broadcast sends msg to every server, including this one (the paper's
// cost model charges a broadcast n processed messages). Down servers
// are skipped: they lose the update, per the paper's fault model.
func (n *Node) broadcast(ctx context.Context, msg wire.Message) error {
	numServers := n.numServers()
	for target := 0; target < numServers; target++ {
		if err := n.callBestEffort(ctx, target, msg); err != nil {
			return err
		}
	}
	return nil
}

// flushAck blocks until the key's logged mutations are durable (per
// the WAL's sync policy), then acknowledges. A write or fsync failure
// surfaces as an error ack — a node with a failing disk must not
// report writes as durable. On a volatile node this is Ack{} directly.
func (n *Node) flushAck(ks *store.KeyState) wire.Message {
	if err := ks.WaitDurable(); err != nil {
		return wire.Ack{Err: "node: wal: " + err.Error()}
	}
	return wire.Ack{}
}

// flushReply upgrades a successful reply with local durability: even a
// coordinator that only forwarded the operation may have logged records
// for its own key state (config adoption on first sight), and the ack
// must cover those too. Error replies pass through untouched.
func (n *Node) flushReply(ks *store.KeyState, reply wire.Message) wire.Message {
	if ack, ok := reply.(wire.Ack); ok && ack.Err == "" {
		return n.flushAck(ks)
	}
	return reply
}

// ackCall wraps a single peer call for handlers that reply with an Ack.
func (n *Node) ackCall(ctx context.Context, server int, msg wire.Message) wire.Message {
	if err := n.call(ctx, server, msg); err != nil {
		return wire.Ack{Err: err.Error()}
	}
	return wire.Ack{}
}

// ackBroadcast wraps broadcast for handlers that reply with an Ack.
func (n *Node) ackBroadcast(ctx context.Context, msg wire.Message) wire.Message {
	if err := n.broadcast(ctx, msg); err != nil {
		return wire.Ack{Err: err.Error()}
	}
	return wire.Ack{}
}

// lockedRNG serializes access to the node's seeded RNG so concurrent
// handlers can share one deterministic stream. Each method holds the
// lock for exactly one draw (or one bulk draw), keeping the critical
// section tiny on the lookup path.
type lockedRNG struct {
	mu  sync.Mutex
	rng *stats.RNG
}

var _ entry.Sampler = (*lockedRNG)(nil)

// IntN returns a uniform int in [0, n).
func (r *lockedRNG) IntN(n int) int {
	r.mu.Lock()
	v := r.rng.IntN(n)
	r.mu.Unlock()
	return v
}

// Bool returns true with probability p.
func (r *lockedRNG) Bool(p float64) bool {
	r.mu.Lock()
	v := r.rng.Bool(p)
	r.mu.Unlock()
	return v
}

// Perm returns a uniform random permutation of [0, n).
func (r *lockedRNG) Perm(n int) []int {
	r.mu.Lock()
	p := r.rng.Perm(n)
	r.mu.Unlock()
	return p
}

// SampleInts returns k distinct uniform values from [0, n).
func (r *lockedRNG) SampleInts(n, k int) []int {
	r.mu.Lock()
	v := r.rng.SampleInts(n, k)
	r.mu.Unlock()
	return v
}
