// Package proxy implements the plsproxy front tier: a stateless layer
// that terminates many cheap client connections, coalesces duplicate
// in-flight partial lookups per (key, t) via singleflight, and serves
// answers from a bounded LRU+TTL result cache — the path-caching idea
// from the DHT literature applied to partial lookups. The paper's
// lookup is read-dominated by design (any t of h entries satisfies a
// client), so hot keys are exactly where answer reuse is safe and
// profitable.
//
// The proxy speaks the ordinary wire protocol behind transport.Server
// (multiplexed frames), so any client of a plsd node can point at a
// plsproxy unchanged. Lookups flow cache → singleflight →
// core.Service (which fans probes to the nodes over the multiplexed
// transport through the selector stack); updates flow straight through
// to the service and, only after the servers' acks are observed, are
// applied to the key's cached answers. The paper's contract is "any t
// live entries", so an update costs a cached answer only what it made
// wrong: an add leaves every answer that has its t entries, a
// delete(k, v) takes v out of the answers that hold it (dropping one
// only if that leaves it short of t), and a place drops the key's
// answers. A cached answer therefore never holds an entry whose delete
// was acked; an added entry may take up to the TTL to show in an answer
// cached before it. Membership-epoch changes flush the whole cache:
// cached answers were computed against the old placement.
package proxy

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Options tune a Proxy. The zero value of every field selects the
// documented default.
type Options struct {
	// CacheEntries bounds the result cache: least-recently-used
	// (key, t) answers are evicted beyond this many. Default 4096.
	CacheEntries int
	// TTL is how long a cached answer may be served; it is the proxy's
	// staleness bound for updates that bypass this proxy, and for how
	// long an answer cached before an add through the proxy can go
	// without the added entry (a delete or place through the proxy
	// reaches the cached answers as soon as it is acked). Zero disables
	// the result cache entirely — singleflight coalescing still applies.
	TTL time.Duration
	// Metrics receives cache, coalescing, and invalidation counters;
	// nil records nothing.
	Metrics *telemetry.ProxyMetrics
	// Now overrides the clock for TTL expiry (tests). Default time.Now.
	Now func() time.Time
	// Maintenance, when set, is where Join and Leave requests forward
	// (server 0 must be a membership coordinator). Nil rejects them.
	Maintenance transport.Caller
	// OnMembership, when set, runs after a MembershipUpdate flushed the
	// cache, so the owner can re-point the backend client and resize
	// the selector before the proxy acks the update.
	OnMembership func(wire.MembershipUpdate)
}

func (o Options) withDefaults() Options {
	if o.CacheEntries <= 0 {
		o.CacheEntries = 4096
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.Metrics == nil {
		o.Metrics = &telemetry.ProxyMetrics{}
	}
	return o
}

// flightKey identifies one coalescable lookup: duplicate in-flight
// lookups for the same key and target collapse into one backend probe
// sequence.
type flightKey struct {
	key string
	t   int
}

// flight is one in-flight backend lookup. The leader fills entries/err
// and closes done; followers read after done. An update acked while
// the flight is out removes it from the flights map — the leader then
// skips the cache fill (stale-fill guard) and lookups arriving after
// the ack start a fresh flight, so a follower can never be handed an
// answer older than an update acked before it asked.
type flight struct {
	done    chan struct{}
	entries []string
	err     string
}

// Proxy terminates client connections for a cluster, caching and
// coalescing partial lookups. It implements transport.Handler; serve
// it with transport.NewServer. Safe for concurrent use.
type Proxy struct {
	svc *core.Service
	opt Options

	mu      sync.Mutex
	cache   *resultCache
	flights map[flightKey]*flight
	epoch   uint64
}

var _ transport.Handler = (*Proxy)(nil)

// New returns a proxy front tier over svc, which must be constructed
// against the cluster-facing transport (typically transport.NewClient
// over the node addresses with a selector attached).
func New(svc *core.Service, opt Options) *Proxy {
	o := opt.withDefaults()
	return &Proxy{
		svc:     svc,
		opt:     o,
		cache:   newResultCache(o.CacheEntries),
		flights: make(map[flightKey]*flight),
	}
}

// Service returns the backing core service (telemetry and tests).
func (p *Proxy) Service() *core.Service { return p.svc }

// CacheLen returns the number of cached answers (admin gauge).
func (p *Proxy) CacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cache.len()
}

// MemberEpoch returns the newest membership epoch the proxy has
// observed via MembershipUpdate.
func (p *Proxy) MemberEpoch() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.epoch
}

// change is what one acked update did to its key, as far as a cached
// answer can tell: which operation ran and, for a delete, on which
// entry.
type change struct {
	op    wire.Kind // KindPlace, KindAdd or KindDelete
	key   string
	entry string
}

// settle applies an acked update to the key's cached answers — place
// drops them, add drops only the thin ones, delete takes its entry out
// of those that hold it — and detaches the key's in-flight lookups
// from the fill path: their leaders still answer the callers that
// already joined (those asked before the update completed — returning
// the pre-update answer to them is linearizable), but the result is
// not cached and lookups arriving from now on probe afresh. Cache and
// flights change under one hold of the lock, so no flight can fill in
// a pre-update answer between the two.
func (p *Proxy) settle(ch change) {
	var patched, dropped int
	p.mu.Lock()
	switch ch.op {
	case wire.KindAdd:
		dropped = p.cache.dropThin(ch.key)
	case wire.KindDelete:
		patched, dropped = p.cache.removeEntry(ch.key, ch.entry)
	default:
		dropped = p.cache.dropKey(ch.key)
	}
	for fk := range p.flights {
		if fk.key == ch.key {
			delete(p.flights, fk)
			dropped++
		}
	}
	p.mu.Unlock()
	if patched > 0 {
		p.opt.Metrics.AnswersPatched.Inc()
	}
	if dropped > 0 {
		p.opt.Metrics.Invalidations.Inc()
	}
}

// InvalidateKey drops every cached answer for key and detaches the
// key's in-flight lookups, as an acked place does: for updates that
// reached the cluster some other way and whose effect on the key is
// not known.
func (p *Proxy) InvalidateKey(key string) {
	p.settle(change{op: wire.KindPlace, key: key})
}

// Handle implements transport.Handler: the client-facing dispatch. A
// standalone Lookup, Place, Add or Delete is served as the one-item
// case of the batched path and answered in its standalone reply shape.
func (p *Proxy) Handle(ctx context.Context, msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case wire.Ping:
		return wire.Ack{}
	case wire.Lookup:
		return p.lookupBatch(ctx, []wire.Lookup{m})[0]
	case wire.LookupBatch:
		return wire.LookupBatchReply{Replies: p.lookupBatch(ctx, m.Items)}
	}
	// Everything else waits on the backend or on the owner's callback.
	transport.Detach(ctx)
	switch m := msg.(type) {
	case wire.Place:
		return standalone(update(ctx, p, []wire.Place{m}, splitPlace, p.svc.PlaceBatch))
	case wire.PlaceBatch:
		return update(ctx, p, m.Items, splitPlace, p.svc.PlaceBatch)
	case wire.Add:
		return standalone(update(ctx, p, []wire.Add{m}, splitAdd, p.svc.AddBatch))
	case wire.AddBatch:
		return update(ctx, p, m.Items, splitAdd, p.svc.AddBatch)
	case wire.Delete:
		// The wire has no delete envelope, so a delete is always one item.
		return standalone(update(ctx, p, []wire.Delete{m}, splitDelete, func(ctx context.Context, _ []wire.Delete) []error {
			return []error{p.svc.Delete(ctx, m.Key, m.Entry)}
		}))
	case wire.MembershipUpdate:
		return p.membership(m)
	case wire.Join, wire.Leave:
		return p.forwardMaintenance(ctx, msg)
	case wire.Dump:
		return wire.DumpReply{Err: "proxy: dump addresses one server's local set; ask the node directly"}
	default:
		return wire.Ack{Err: fmt.Sprintf("proxy: unsupported message kind %d", msg.Kind())}
	}
}

// lookupBatch serves partial lookups, one reply per item: result-cache
// hits answer immediately, in-flight duplicates (within the request or
// against concurrent clients) join as followers, and the remaining
// misses lead flights through the backing service — one
// PartialLookupBatch per distinct t.
func (p *Proxy) lookupBatch(ctx context.Context, items []wire.Lookup) []wire.LookupReply {
	replies := make([]wire.LookupReply, len(items))
	type waiter struct {
		idx int
		fk  flightKey
		f   *flight
	}
	var followers, leaders []waiter

	m := p.opt.Metrics
	p.mu.Lock()
	now := p.opt.Now()
	for i, it := range items {
		fk := flightKey{key: it.Key, t: it.T}
		entries, ok, expired := p.cache.get(fk, now)
		m.Lookups.Inc()
		if ok {
			m.CacheHits.Inc()
			replies[i] = wire.LookupReply{Entries: entries}
			continue
		}
		if expired {
			m.CacheExpired.Inc() // an expired entry is a miss too
		}
		m.CacheMisses.Inc()
		f, live := p.flights[fk]
		if live {
			m.Coalesced.Inc()
			followers = append(followers, waiter{idx: i, f: f})
			continue
		}
		m.Flights.Inc()
		f = &flight{done: make(chan struct{})}
		p.flights[fk] = f
		leaders = append(leaders, waiter{idx: i, fk: fk, f: f})
	}
	p.mu.Unlock()
	if len(leaders)+len(followers) > 0 {
		// Cache hits were answered where the request was read; flights
		// wait on the backend.
		transport.Detach(ctx)
	}

	// Lead the flights, grouped by t in first-appearance order.
	for len(leaders) > 0 {
		t := leaders[0].fk.t
		var group, rest []waiter
		var keys []string
		for _, ld := range leaders {
			if ld.fk.t != t {
				rest = append(rest, ld)
				continue
			}
			group = append(group, ld)
			keys = append(keys, ld.fk.key)
		}
		for j, o := range p.svc.PartialLookupBatch(ctx, keys, t) {
			replies[group[j].idx] = p.finishFlight(group[j].fk, group[j].f, o.Result.Entries, o.Err)
		}
		leaders = rest
	}
	for _, fo := range followers {
		replies[fo.idx] = waitFlight(ctx, fo.f)
	}
	return replies
}

// finishFlight completes a leader's flight: cache the answer if no
// update detached the flight mid-probe, publish it to followers, and
// build the reply. An answer with fewer than t entries is cached like
// any other: it keeps a hot key that holds fewer than t entries off the
// cluster, and the next add to the key drops it.
func (p *Proxy) finishFlight(fk flightKey, f *flight, entries []entry.Entry, err error) wire.LookupReply {
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	p.mu.Lock()
	if p.flights[fk] == f {
		delete(p.flights, fk)
		if err == nil && p.opt.TTL > 0 {
			p.cache.put(fk, entries, p.opt.Now().Add(p.opt.TTL))
		}
	} else if err == nil {
		// An update to the key was acked while we probed: the answer may
		// predate it, so it must not enter the cache.
		p.opt.Metrics.StaleFills.Inc()
	}
	p.mu.Unlock()
	f.entries, f.err = entries, errStr
	close(f.done)
	return wire.LookupReply{Entries: entries, Err: errStr}
}

// waitFlight parks a follower on the leader's flight.
func waitFlight(ctx context.Context, f *flight) wire.LookupReply {
	select {
	case <-f.done:
		return wire.LookupReply{Entries: f.entries, Err: f.err}
	case <-ctx.Done():
		return wire.LookupReply{Err: ctx.Err().Error()}
	}
}

// update is the one path for client updates, standalone or batched:
// split names the change each message makes, the config it carries and
// the item run takes. The carried config is pinned first (clients ship
// it with every update, exactly as they do toward a node), then the
// items run through the backing service, and each change is settled on
// the cache only after that call — and with it the servers' acks — has
// completed. A failed update may have landed in part and settles like
// an acked one: every rule only ever removes from the cache.
func update[M, I any](ctx context.Context, p *Proxy, msgs []M, split func(M) (change, wire.Config, I), run func(context.Context, []I) []error) wire.BatchAck {
	changes := make([]change, len(msgs))
	items := make([]I, len(msgs))
	for i, m := range msgs {
		var cfg wire.Config
		changes[i], cfg, items[i] = split(m)
		if cfg.Scheme.Valid() {
			if err := p.svc.SetKeyConfig(changes[i].key, cfg); err != nil {
				return wire.BatchAck{Err: err.Error()}
			}
		}
	}
	errs := run(ctx, items)
	out := wire.BatchAck{Errs: make([]string, len(msgs))}
	for i, ch := range changes {
		p.settle(ch)
		p.opt.Metrics.Updates.Inc()
		if errs[i] != nil {
			out.Errs[i] = errs[i].Error()
		}
	}
	return out
}

func splitPlace(m wire.Place) (change, wire.Config, core.PlaceItem) {
	return change{op: wire.KindPlace, key: m.Key}, m.Config, core.PlaceItem{Key: m.Key, Entries: m.Entries}
}

func splitAdd(m wire.Add) (change, wire.Config, core.AddItem) {
	return change{op: wire.KindAdd, key: m.Key}, m.Config, core.AddItem{Key: m.Key, Entry: m.Entry}
}

func splitDelete(m wire.Delete) (change, wire.Config, wire.Delete) {
	return change{op: wire.KindDelete, key: m.Key, entry: m.Entry}, m.Config, m
}

// standalone is the reply to a standalone update: the Ack form of its
// one-item BatchAck.
func standalone(b wire.BatchAck) wire.Ack {
	if b.Err != "" {
		return wire.Ack{Err: b.Err}
	}
	return wire.Ack{Err: b.Errs[0]}
}

// membership applies a MembershipUpdate notification: every cached
// answer was computed against the old placement, so the whole cache
// flushes, then the owner's callback re-points the backend before the
// update is acked.
func (p *Proxy) membership(m wire.MembershipUpdate) wire.Message {
	p.mu.Lock()
	if m.Epoch <= p.epoch {
		p.mu.Unlock()
		return wire.Ack{} // already applied; idempotent against re-broadcast
	}
	p.epoch = m.Epoch
	p.cache.flush()
	p.flights = make(map[flightKey]*flight)
	p.mu.Unlock()
	p.opt.Metrics.EpochFlushes.Inc()
	if p.opt.OnMembership != nil {
		p.opt.OnMembership(m)
	}
	return wire.Ack{}
}

// forwardMaintenance relays Join/Leave to the membership coordinator
// behind the proxy.
func (p *Proxy) forwardMaintenance(ctx context.Context, msg wire.Message) wire.Message {
	if p.opt.Maintenance == nil {
		return wire.Ack{Err: "proxy: no maintenance backend configured; send membership operations to a node"}
	}
	reply, err := p.opt.Maintenance.Call(ctx, 0, msg)
	if err != nil {
		return wire.Ack{Err: fmt.Sprintf("proxy: forwarding %T: %v", msg, err)}
	}
	// A membership change the proxy itself forwarded must not leave its
	// own view behind: the coordinator answers Join and Leave alike with
	// the update it committed, which applies here directly (the
	// epoch-gated handler keeps a later re-broadcast idempotent).
	if m, ok := reply.(wire.MembershipUpdate); ok {
		p.membership(m)
	}
	return reply
}
