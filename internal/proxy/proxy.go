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
// to the service and invalidate the affected key only after the
// servers' acks are observed, so a stale cached answer never outlives
// an acked delete. Membership-epoch changes flush the whole cache:
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
	// staleness bound for updates that bypass this proxy (updates
	// through the proxy invalidate immediately). Zero disables the
	// result cache entirely — singleflight coalescing still applies.
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
// and closes done; followers read after done. An invalidation racing
// the flight removes it from the flights map — the leader then skips
// the cache fill (stale-fill guard) and lookups arriving after the
// invalidation start a fresh flight, so a follower can never be handed
// an answer older than an update acked before it asked.
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

// InvalidateKey drops every cached answer for key and detaches the
// key's in-flight lookups from the fill path: their leaders will still
// answer the callers that already joined (those asked before the
// update completed — returning the pre-update answer to them is
// linearizable), but the result is not cached and lookups arriving
// from now on probe afresh. Exposed so core.WithUpdateHook can feed
// the proxy invalidations for updates that do not flow through Handle.
func (p *Proxy) InvalidateKey(key string) {
	p.mu.Lock()
	dropped := p.cache.invalidateKey(key)
	for fk := range p.flights {
		if fk.key == key {
			delete(p.flights, fk)
			dropped++
		}
	}
	p.mu.Unlock()
	if dropped > 0 {
		p.opt.Metrics.RecordInvalidation()
	}
}

// Flush drops the whole result cache and detaches every in-flight
// lookup from the fill path (membership changes; operator action).
func (p *Proxy) Flush() {
	p.mu.Lock()
	p.cache.flush()
	p.flights = make(map[flightKey]*flight)
	p.mu.Unlock()
}

// Handle implements transport.Handler: the client-facing dispatch.
func (p *Proxy) Handle(ctx context.Context, msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case wire.Ping:
		return wire.Ack{}
	case wire.Lookup:
		return p.lookup(ctx, m.Key, m.T)
	case wire.LookupBatch:
		return p.lookupBatch(ctx, m)
	case wire.Place:
		return p.update(m.Key, m.Config, func() error {
			return p.svc.Place(ctx, m.Key, toEntries(m.Entries))
		})
	case wire.Add:
		return p.update(m.Key, m.Config, func() error {
			return p.svc.Add(ctx, m.Key, entry.Entry(m.Entry))
		})
	case wire.Delete:
		return p.update(m.Key, m.Config, func() error {
			return p.svc.Delete(ctx, m.Key, entry.Entry(m.Entry))
		})
	case wire.PlaceBatch:
		return p.placeBatch(ctx, m)
	case wire.AddBatch:
		return p.addBatch(ctx, m)
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

// lookup serves one partial lookup: result cache, then singleflight,
// then the backing service.
func (p *Proxy) lookup(ctx context.Context, key string, t int) wire.LookupReply {
	fk := flightKey{key: key, t: t}
	p.mu.Lock()
	if entries, ok, expired := p.cache.get(fk, p.opt.Now()); ok {
		p.mu.Unlock()
		p.opt.Metrics.RecordLookup(true, false)
		return wire.LookupReply{Entries: entries}
	} else if f, live := p.flights[fk]; live {
		p.mu.Unlock()
		p.opt.Metrics.RecordLookup(false, expired)
		p.opt.Metrics.RecordFlight(true)
		return waitFlight(ctx, f)
	} else {
		f = &flight{done: make(chan struct{})}
		p.flights[fk] = f
		p.mu.Unlock()
		p.opt.Metrics.RecordLookup(false, expired)
		p.opt.Metrics.RecordFlight(false)

		res, err := p.svc.PartialLookup(ctx, key, t)
		return p.finishFlight(fk, f, res.Entries, err)
	}
}

// finishFlight completes a leader's flight: cache the answer if no
// invalidation detached the flight mid-probe, publish it to followers,
// and build the reply.
func (p *Proxy) finishFlight(fk flightKey, f *flight, got []entry.Entry, err error) wire.LookupReply {
	entries := toStrings(got)
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
		// An update invalidated the key while we probed: the answer may
		// predate the acked update, so it must not enter the cache.
		p.opt.Metrics.RecordStaleFill()
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

// lookupBatch serves a batched lookup: cache hits answer immediately,
// in-flight duplicates (within the batch or against concurrent
// clients) join as followers, and the remaining misses go to the
// backing service in one PartialLookupBatch per distinct t.
func (p *Proxy) lookupBatch(ctx context.Context, lb wire.LookupBatch) wire.LookupBatchReply {
	replies := make([]wire.LookupReply, len(lb.Items))
	type follower struct {
		idx int
		f   *flight
	}
	type leader struct {
		idx int
		fk  flightKey
		f   *flight
	}
	var followers []follower
	var leaders []leader
	byT := make(map[int][]int) // t -> indexes into leaders, first-appearance order
	var tOrder []int

	p.mu.Lock()
	now := p.opt.Now()
	for i, it := range lb.Items {
		fk := flightKey{key: it.Key, t: it.T}
		if entries, ok, expired := p.cache.get(fk, now); ok {
			replies[i] = wire.LookupReply{Entries: entries}
			p.opt.Metrics.RecordLookup(true, false)
			continue
		} else {
			p.opt.Metrics.RecordLookup(false, expired)
		}
		if f, live := p.flights[fk]; live {
			followers = append(followers, follower{idx: i, f: f})
			p.opt.Metrics.RecordFlight(true)
			continue
		}
		f := &flight{done: make(chan struct{})}
		p.flights[fk] = f
		if _, seen := byT[it.T]; !seen {
			tOrder = append(tOrder, it.T)
		}
		byT[it.T] = append(byT[it.T], len(leaders))
		leaders = append(leaders, leader{idx: i, fk: fk, f: f})
		p.opt.Metrics.RecordFlight(false)
	}
	p.mu.Unlock()

	for _, t := range tOrder {
		li := byT[t]
		keys := make([]string, len(li))
		for j, l := range li {
			keys[j] = leaders[l].fk.key
		}
		outcomes := p.svc.PartialLookupBatch(ctx, keys, t)
		for j, l := range li {
			ld := leaders[l]
			replies[ld.idx] = p.finishFlight(ld.fk, ld.f, outcomes[j].Result.Entries, outcomes[j].Err)
		}
	}
	for _, fo := range followers {
		replies[fo.idx] = waitFlight(ctx, fo.f)
	}
	return wire.LookupBatchReply{Replies: replies}
}

// update pins the carried config (clients ship it with every update,
// exactly as they do toward a node) and runs one update through the
// backing service, invalidating the key only after the call — and with
// it the servers' acks — has completed.
func (p *Proxy) update(key string, cfg wire.Config, op func() error) wire.Ack {
	if cfg.Scheme.Valid() {
		if err := p.svc.SetKeyConfig(key, cfg); err != nil {
			return wire.Ack{Err: err.Error()}
		}
	}
	err := op()
	p.InvalidateKey(key)
	p.opt.Metrics.RecordUpdate()
	if err != nil {
		return wire.Ack{Err: err.Error()}
	}
	return wire.Ack{}
}

// placeBatch proxies a PlaceBatch envelope through the service's
// batched path, invalidating each key after the acks.
func (p *Proxy) placeBatch(ctx context.Context, pb wire.PlaceBatch) wire.BatchAck {
	items := make([]core.PlaceItem, len(pb.Items))
	for i, it := range pb.Items {
		if it.Config.Scheme.Valid() {
			if err := p.svc.SetKeyConfig(it.Key, it.Config); err != nil {
				return wire.BatchAck{Err: err.Error()}
			}
		}
		items[i] = core.PlaceItem{Key: it.Key, Entries: toEntries(it.Entries)}
	}
	errs := p.svc.PlaceBatch(ctx, items)
	return p.finishBatch(pb.Items, errs)
}

// addBatch proxies an AddBatch envelope; see placeBatch.
func (p *Proxy) addBatch(ctx context.Context, ab wire.AddBatch) wire.BatchAck {
	items := make([]core.AddItem, len(ab.Items))
	for i, it := range ab.Items {
		if it.Config.Scheme.Valid() {
			if err := p.svc.SetKeyConfig(it.Key, it.Config); err != nil {
				return wire.BatchAck{Err: err.Error()}
			}
		}
		items[i] = core.AddItem{Key: it.Key, Entry: entry.Entry(it.Entry)}
	}
	errs := p.svc.AddBatch(ctx, items)
	return p.finishBatch2(ab.Items, errs)
}

func (p *Proxy) finishBatch(items []wire.Place, errs []error) wire.BatchAck {
	out := wire.BatchAck{Errs: make([]string, len(items))}
	for i, it := range items {
		p.InvalidateKey(it.Key)
		p.opt.Metrics.RecordUpdate()
		if errs[i] != nil {
			out.Errs[i] = errs[i].Error()
		}
	}
	return out
}

func (p *Proxy) finishBatch2(items []wire.Add, errs []error) wire.BatchAck {
	out := wire.BatchAck{Errs: make([]string, len(items))}
	for i, it := range items {
		p.InvalidateKey(it.Key)
		p.opt.Metrics.RecordUpdate()
		if errs[i] != nil {
			out.Errs[i] = errs[i].Error()
		}
	}
	return out
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
	p.opt.Metrics.RecordEpochFlush()
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
	// own view behind. A Join replies with the committed
	// MembershipUpdate, which applies directly; a drain's reply is a
	// bare Ack, so the proxy synthesizes the update it already knows
	// (the leaver's slot, n shrinking by one) — the epoch-gated
	// membership handler keeps either path idempotent against a later
	// re-broadcast of the same change.
	switch r := reply.(type) {
	case wire.MembershipUpdate:
		p.membership(r)
	case wire.Ack:
		if lv, ok := msg.(wire.Leave); ok && r.Err == "" {
			n := p.opt.Maintenance.NumServers()
			p.mu.Lock()
			next := p.epoch + 1
			p.mu.Unlock()
			p.membership(wire.MembershipUpdate{
				Epoch: next, OldN: n, NewN: n - 1, Leaving: lv.Server,
			})
		}
	}
	return reply
}

func toStrings(entries []entry.Entry) []string {
	out := make([]string, len(entries))
	for i, v := range entries {
		out[i] = string(v)
	}
	return out
}

func toEntries(ss []string) []entry.Entry {
	out := make([]entry.Entry, len(ss))
	for i, s := range ss {
		out[i] = entry.Entry(s)
	}
	return out
}
