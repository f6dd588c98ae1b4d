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
//   - internal/store owns all per-key state, one lock per key behind
//     one sync.Map key index, with copy-on-write snapshots, so traffic
//     on different keys never serializes and partial_lookup reads never
//     block writers.
//   - One executor per placement rule (exec_*.go; Hash-y and
//     MultiProbe-y share one) implements the protocol of its Sec. 5
//     subsection against that store.
//
// A Node is transport-agnostic: it consumes a transport.Caller for peer
// traffic and implements transport.Handler, so the same code runs under
// the in-process simulator and the TCP daemon.
package node

import (
	"cmp"
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
// caller, or SetHost, before serving traffic.
type Node struct {
	// cur is the node's committed view of the cluster, replaced whole;
	// each request loads it once. host, when set, gives each view its
	// caller (see Host); a node without one takes no membership change.
	cur  atomic.Pointer[view]
	host Host

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
	lastRebalance atomic.Pointer[SweepStats]
	// coordinating serializes the membership changes this node
	// coordinates (see coordinate).
	coordinating sync.Mutex

	// handled counts the messages Handle has run: the node's share of
	// the paper's message meter (Sec. 6.4), whether a transport
	// delivered them or the node sent them to itself.
	handled atomic.Int64
}

var _ transport.Handler = (*Node)(nil)

// New returns a node of rank id, seeded deterministically from seed
// (each node should get a distinct seed; see stats.RNG.Split).
func New(id int, rng *stats.RNG) *Node {
	n := &Node{
		rng:   lockedRNG{rng: rng},
		store: store.New(),
	}
	n.cur.Store(&view{View: View{Self: id}})
	return n
}

// Attach wires the peer caller the node uses for broadcasts and
// migrations, keeping its view's numbering; a node without one becomes
// a static node of its id's rank among the caller's servers, with no
// addresses. It must be called before the node serves traffic.
//
// The caller carries the messages addressed to other servers only: one
// the node addresses to itself is handled in process (see callReply)
// and never reaches peers, so whatever wraps it — Chaos faults and
// hop counters, the peer.* metrics, a selector's latency scoreboard, a
// retry layer — does not see or touch this server's messages to itself.
func (n *Node) Attach(peers transport.Caller) {
	v := *n.cur.Load()
	if v.Addrs == nil {
		v.Addrs = make([]string, peers.NumServers())
	}
	v.peers = peers
	n.cur.Store(&v)
}

// ID returns the node's rank in its view, -1 once it has drained.
func (n *Node) ID() int { return n.cur.Load().Self }

// View returns the node's committed view of the cluster.
func (n *Node) View() View { return n.cur.Load().View }

// SetTopology attaches (or, with nil, detaches) the cluster's zone
// topology, which every member must hold alike (DESIGN.md §6,
// "Zone-spread placement"), before the node serves traffic.
func (n *Node) SetTopology(tp *topo.Topology) {
	v := *n.cur.Load()
	v.Topology = tp
	n.cur.Store(&v)
}

// Instrument attaches per-op telemetry: the node counts the Place /
// Add / Delete / Lookup requests it handles against its server id. The
// same NodeMetrics is shared by every node of a cluster, giving the
// per-server throughput vectors a snapshot exposes.
func (n *Node) Instrument(m *telemetry.NodeMetrics) { n.metrics.Store(m) }

// recordOp counts one handled client-facing operation against rank
// id; batch envelopes count one op per item, so throughput vectors
// measure keys served, not envelopes.
func (n *Node) recordOp(id int, msg wire.Message) {
	m := n.metrics.Load()
	if m == nil {
		return
	}
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

// Handle implements transport.Handler: it dispatches one message and,
// unless the kind only reads, waits once for the node's log as it
// stands, so the reply covers every record the request logged here,
// through messages the node sent itself too; a failed wait is the
// reply's own error. That commit stays on the goroutine that read the
// request; a remote peer call (callReply), the coordinating lock
// (coordinate) and a replayed update's sweep (handleMembershipUpdate)
// detach from it.
func (n *Node) Handle(ctx context.Context, msg wire.Message) wire.Message {
	reply := n.dispatch(ctx, msg)
	switch msg.(type) {
	case wire.Lookup, wire.LookupBatch, wire.Dump, wire.RepairQuery, wire.Ping:
		return reply
	}
	if err := n.store.WaitDurable(); err != nil {
		return walFailed(reply, err)
	}
	return reply
}

// walFailed returns reply failing with the log's error err, unless it
// already fails for its own reason.
func walFailed(reply wire.Message, err error) wire.Message {
	errMsg := "node: wal: " + err.Error()
	switch r := reply.(type) {
	case wire.Ack:
		return wire.Ack{Err: cmp.Or(r.Err, errMsg)}
	case wire.BatchAck:
		return wire.BatchAck{Errs: r.Errs, Err: cmp.Or(r.Err, errMsg)}
	case wire.MigrateReply:
		r.Err = cmp.Or(r.Err, errMsg)
		return r
	case wire.RepairPushReply:
		r.Err = cmp.Or(r.Err, errMsg)
		return r
	}
	return reply
}

// dispatch runs one protocol message under the view it loads once
// here, counting it in Handled; it does not wait for the log. Nested
// peer calls (broadcasts, migrations) are issued with no key lock
// held, so self-directed messages re-enter dispatch safely.
func (n *Node) dispatch(ctx context.Context, msg wire.Message) wire.Message {
	r := req{n, n.cur.Load()}
	n.handled.Add(1)
	n.recordOp(r.v.Self, msg)
	switch m := msg.(type) {
	case wire.Place:
		return r.handlePlace(ctx, m)
	case wire.Add:
		return r.handleAdd(ctx, m)
	case wire.Delete:
		return r.handleDelete(ctx, m)
	case wire.Lookup:
		return n.handleLookup(m)
	case wire.PlaceBatch:
		return r.handlePlaceBatch(ctx, m)
	case wire.AddBatch:
		return r.handleAddBatch(ctx, m)
	case wire.LookupBatch:
		return n.handleLookupBatch(m)
	case wire.StoreBatch:
		return r.handleStoreBatch(m)
	case wire.StoreBatches:
		return r.handleStoreBatches(m)
	case wire.StoreOne:
		return r.handleStoreOne(m)
	case wire.RemoveOne:
		return r.handleRemoveOne(ctx, m)
	case wire.RoundRemove:
		return r.handleRoundRemove(ctx, m)
	case wire.RemoveAt:
		return n.handleRemoveAt(m)
	case wire.Migrate:
		return r.handleMigrate(ctx, m)
	case wire.Dump:
		return n.handleDump(m)
	case wire.RepairQuery:
		return n.handleRepairQuery(m)
	case wire.RepairPush:
		return r.handleRepairPush(m)
	case wire.Join:
		return n.handleJoin(ctx, m)
	case wire.Leave:
		return n.handleLeave(ctx, m)
	case wire.MembershipUpdate:
		return n.handleMembershipUpdate(ctx, m)
	case wire.Ping:
		return wire.Ack{}
	default:
		return wire.Ack{Err: fmt.Sprintf("node %d: unexpected message kind %d", r.v.Self, msg.Kind())}
	}
}

// handlePlace implements the initial server S's role in
// place(v1..vh): a PlaceBatch of one (see place).
func (r req) handlePlace(ctx context.Context, m wire.Place) wire.Message {
	return wire.Ack{Err: r.place(ctx, []wire.Place{m})[0]}
}

// handleAdd implements the initial server S's role in add(v) (Sec. 5).
// The stored config (installed by the key's placement) wins over the
// one riding on the message, so a client with a stale config cannot
// fork the key's strategy.
func (r req) handleAdd(ctx context.Context, m wire.Add) wire.Message {
	if !entry.Valid(m.Entry) {
		return wire.Ack{Err: "node: add with empty entry"}
	}
	if r.v.peers == nil {
		return wire.Ack{Err: "node: no peer caller attached"}
	}
	ks := r.store.GetOrCreate(m.Key, m.Config)
	cfg := ks.Config()
	return execFor(cfg.Scheme).add(ctx, r, ks, cfg, m)
}

// handleDelete implements the initial server S's role in delete(v).
func (r req) handleDelete(ctx context.Context, m wire.Delete) wire.Message {
	if r.v.peers == nil {
		return wire.Ack{Err: "node: no peer caller attached"}
	}
	ks := r.store.GetOrCreate(m.Key, m.Config)
	cfg := ks.Config()
	return execFor(cfg.Scheme).del(ctx, r, ks, cfg, m)
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

// handleStoreBatch applies a place broadcast: the executor builds the
// receiver's share of the batch apart, numbering on from the key's set,
// and the share replaces the key's whole state (config, entry set,
// strategy state) as one logged SnapKey: a torn log holds all of it or
// none.
func (r req) handleStoreBatch(m wire.StoreBatch) wire.Message {
	if !allValid(m.Entries) {
		return wire.Ack{Err: errEmptyPlaceEntry}
	}
	r.store.GetOrCreate(m.Key, m.Config).Update(func(st *store.State) {
		share := store.State{Key: st.Key, Cfg: m.Config, Set: st.Set.Fresh()}
		execFor(share.Cfg.Scheme).storeBatch(r, &share, m.Entries)
		st.Cfg, st.Set, st.Ext = share.Cfg, share.Set, share.Ext
		if st.Logging() {
			st.Log(snapKeyOf(st.Key, st))
		}
	})
	return wire.Ack{}
}

// handleStoreOne applies a single-entry store under the key's
// scheme-specific local rule.
func (r req) handleStoreOne(m wire.StoreOne) wire.Message {
	if !entry.Valid(m.Entry) {
		return wire.Ack{Err: "node: store with empty entry"}
	}
	r.store.GetOrCreate(m.Key, m.Config).Update(func(st *store.State) {
		execFor(st.Cfg.Scheme).storeOne(r, st, m)
	})
	return wire.Ack{}
}

// handleRemoveOne deletes a local copy under the key's scheme-specific
// rule; RandomServer-x may follow up with a replacement search (see
// exec_randomserver.go).
func (r req) handleRemoveOne(ctx context.Context, m wire.RemoveOne) wire.Message {
	var after func()
	r.store.GetOrCreate(m.Key, m.Config).Update(func(st *store.State) {
		after = execFor(st.Cfg.Scheme).removeOne(ctx, r, st, m)
	})
	if after != nil {
		after()
	}
	return wire.Ack{}
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

// callBestEffort sends msg to one peer, treating an unreachable peer
// as a skipped delivery rather than a failure: in the paper's fault
// model a failed server simply loses the entries it would have stored
// ("if a server goes down, we may lose some entries permanently",
// Sec. 4.4), so updates proceed past down replicas.
func (r req) callBestEffort(ctx context.Context, server int, msg wire.Message) error {
	err := r.call(ctx, server, msg)
	if errors.Is(err, transport.ErrServerDown) {
		return nil
	}
	return err
}

// call sends msg to one peer and surfaces any application-level error
// carried in the Ack.
func (r req) call(ctx context.Context, server int, msg wire.Message) error {
	reply, err := r.callReply(ctx, server, msg)
	if err != nil {
		return err
	}
	if ack, ok := reply.(wire.Ack); ok && ack.Err != "" {
		return fmt.Errorf("node: server %d: %s", server, ack.Err)
	}
	return nil
}

// callReply sends msg to the server of rank server in the request's
// view and returns its reply, detaching the request from its
// connection's reader first when the server is another one. The view's
// caller numbers the servers as the view does for as long as the
// request holds it, so a membership change committed meanwhile cannot
// re-address the call. A message the node addresses to itself does not
// leave the process: dispatch runs it on the calling goroutine with the
// caller's ctx — cancellation carries, and so does the reader, which
// the nested handler detaches from if it calls a peer in turn — and
// returns the same reply, except that it does not wait for the log:
// the request that sent it waits once, in Handle, for every record.
// It is still a processed message in the paper's cost model (Sec. 6.4
// counts a broadcast's message to the sender): dispatch counts it as it
// counts the others, and the node.local_deliveries vector too.
func (r req) callReply(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	self, peers := r.v.Self, r.v.peers
	if peers == nil {
		return nil, fmt.Errorf("node %d: no peer caller attached", self)
	}
	if server != self {
		transport.Detach(ctx)
		return peers.Call(ctx, server, msg)
	}
	if err := ctx.Err(); err != nil {
		return nil, err // as every Caller abandons a cancelled request
	}
	if m := r.metrics.Load(); m != nil {
		m.LocalDeliveries.At(self).Inc()
	}
	return r.dispatch(ctx, msg), nil
}

// Handled returns how many messages the node has handled: the paper's
// per-server message count (Sec. 6.4), each message a transport
// delivered and each the node delivered to itself.
func (n *Node) Handled() int64 { return n.handled.Load() }

// broadcast sends msg to every server of the view, including this one
// (the paper's cost model charges a broadcast n processed messages).
// Down servers are skipped: they lose the update, per the paper's fault
// model.
func (r req) broadcast(ctx context.Context, msg wire.Message) error {
	for target := range r.v.Addrs {
		if err := r.callBestEffort(ctx, target, msg); err != nil {
			return err
		}
	}
	return nil
}

// ackCall wraps a single peer call for handlers that reply with an Ack.
func (r req) ackCall(ctx context.Context, server int, msg wire.Message) wire.Message {
	if err := r.call(ctx, server, msg); err != nil {
		return wire.Ack{Err: err.Error()}
	}
	return wire.Ack{}
}

// ackBroadcast wraps broadcast for handlers that reply with an Ack.
func (r req) ackBroadcast(ctx context.Context, msg wire.Message) wire.Message {
	if err := r.broadcast(ctx, msg); err != nil {
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
