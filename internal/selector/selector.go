// Package selector implements failure-aware server selection for the
// strategy drivers: a per-server scoreboard (EWMA latency, consecutive
// failure streaks, half-open recovery probes) fed by a transport
// middleware hook, plus a bounded per-key routing cache remembering
// which servers answered a key recently and which came back empty.
//
// The paper's client lookup cost (Sec. 4.2) is the expected number of
// servers contacted to collect t of h entries; the scoreboard and cache
// shrink it by trying a key's known-good servers first and demoting
// servers that are failing or slow, in the spirit of multi-probe
// load/latency-aware probe ordering. Ordering is a pure reshuffle of
// the driver's seeded random permutation: a cold selector (no recorded
// outcomes, empty cache) returns the permutation unchanged, so seeded
// experiment outputs stay byte-identical until real signal exists.
package selector

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
)

// The scoreboard's parameters. No daemon, tool or benchmark ever chose
// another value, so they are constants, not options.
const (
	// ewmaAlpha is the EWMA smoothing factor for per-server latency.
	ewmaAlpha = 0.25
	// defaultFailThreshold is how many consecutive failures open
	// (demote) a server.
	defaultFailThreshold = 3
	// probeAfter is how long an open server waits before the selector
	// grants one half-open trial probe.
	probeAfter = time.Second
	// slowFactor demotes a healthy server behind its healthy peers when
	// its EWMA latency exceeds slowFactor times the best healthy EWMA.
	slowFactor = 2
)

// Options attach a Selector to its surroundings; the zero value is a
// working selector that records no metrics.
type Options struct {
	// Metrics receives cache hit/miss, demotion, and half-open probe
	// counters; nil records nothing.
	Metrics *telemetry.SelectorMetrics
}

func (o Options) withDefaults() Options {
	if o.Metrics == nil {
		o.Metrics = &telemetry.SelectorMetrics{}
	}
	return o
}

// serverState is one server's scoreboard row.
type serverState struct {
	ewma        float64 // nanoseconds; meaningful only when samples > 0
	samples     int64
	consecFails int
	open        bool // demoted after failThreshold consecutive failures
	lastFail    time.Time
	probing     bool // a half-open trial call is out and not resolved
	probedAt    time.Time
}

// Selector is safe for concurrent use; one instance serves every driver
// of a client (or the peer path of a server daemon).
type Selector struct {
	opt Options
	// failThreshold is defaultFailThreshold; a field so that in-package
	// tests can open a circuit in fewer steps.
	failThreshold int

	mu           sync.Mutex
	clock        *transport.Clock // times circuits; set by Observe
	servers      []serverState
	observations int64 // outcomes recorded; 0 and an empty cache = cold
	failures     uint64
	cache        routeCache

	// Scratch for building orders, reused under mu so that an order
	// allocates nothing but itself. pos pools a lookup's cached answers;
	// posIdx holds, per server, 1 + its index in pos (0: not in pos) and
	// is all zero between calls; tiers holds each base position's tier.
	pos    []posEntry
	posIdx []int
	tiers  []uint8

	// Zone awareness (SetTopology): with a topology and a client zone,
	// servers inside each tier are additionally ordered nearest zone
	// first, so lookups drain same-rack and same-DC replicas before
	// paying cross-region links. dists caches the per-server distance
	// from the client zone; nil means zone ordering is off and the
	// cold-path byte-identity guarantee applies unchanged.
	tp         *topo.Topology
	clientZone string
	dists      []int
}

// New returns a selector for a cluster of n servers.
func New(n int, opt Options) *Selector {
	if n <= 0 {
		panic(fmt.Sprintf("selector: New requires n > 0, got %d", n))
	}
	return &Selector{
		opt:           opt.withDefaults(),
		failThreshold: defaultFailThreshold,
		servers:       make([]serverState, n),
	}
}

// SetTopology enables zone-aware ordering: servers within each health
// tier are preferred nearest the given client zone first (same rack,
// then same DC, same region, cross-region), with base order preserved
// among equidistant servers. Passing a nil topology or an empty zone
// disables it. Zone ordering is deliberate signal, so once enabled the
// selector is never "cold": orders deviate from the seeded base even
// before any outcome is recorded — which is why topology-free runs
// (the golden-verified configuration) never call this.
func (s *Selector) SetTopology(tp *topo.Topology, clientZone string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tp = tp
	s.clientZone = clientZone
	s.recomputeDistsLocked()
}

// recomputeDistsLocked refreshes the per-server zone distance cache.
func (s *Selector) recomputeDistsLocked() {
	if s.tp == nil || s.clientZone == "" {
		s.dists = nil
		return
	}
	s.dists = make([]int, len(s.servers))
	for i := range s.dists {
		s.dists[i] = s.tp.DistZone(s.clientZone, i)
	}
}

// N returns the cluster size the selector tracks.
func (s *Selector) N() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.servers)
}

// Resize re-sizes the scoreboard after a membership change. Growth
// (a join: existing ids are stable) appends cold rows and keeps the
// accumulated signal; any other transition — shrinkage (a drain:
// higher ids shifted down) or a same-size renumbering (a drain paired
// with a join, or an id compaction) — resets the scoreboard, since
// per-id signal would be misattributed to the wrong servers. Every
// call, including same-n, drops the routing cache — cached server ids
// are stale the moment the member list changes, whether or not its
// length did — and advances the failure epoch so epoch-gated repair
// sweeps rescan under the new topology.
func (s *Selector) Resize(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("selector: Resize requires n > 0, got %d", n))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n > len(s.servers) {
		grown := make([]serverState, n)
		copy(grown, s.servers)
		s.servers = grown
	} else {
		s.servers = make([]serverState, n)
	}
	s.cache = routeCache{}
	s.recomputeDistsLocked()
	s.failures++
}

// RecordSuccess feeds one successful call's latency into the
// scoreboard; it closes an open server (the half-open trial passed).
func (s *Selector) RecordSuccess(server int, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if server < 0 || server >= len(s.servers) {
		return
	}
	st := &s.servers[server]
	st.consecFails = 0
	st.open = false
	st.probing = false
	if st.samples == 0 {
		st.ewma = float64(d)
	} else {
		st.ewma = ewmaAlpha*float64(d) + (1-ewmaAlpha)*st.ewma
	}
	st.samples++
	s.observations++
}

// RecordFailure feeds one server-attributable failure (a call matching
// transport.ErrServerDown) into the scoreboard. Crossing failThreshold
// consecutive failures demotes the server to the back of every order
// until a half-open probe succeeds.
func (s *Selector) RecordFailure(server int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if server < 0 || server >= len(s.servers) {
		return
	}
	st := &s.servers[server]
	st.consecFails++
	st.lastFail = s.clock.Now()
	st.probing = false
	if !st.open && st.consecFails >= s.failThreshold {
		st.open = true
		s.opt.Metrics.Demotions.Inc()
	}
	s.observations++
	s.failures++
}

// RecordAnswer feeds the routing cache: server answered a lookup probe
// for key with the given number of entries. Zero entries is a negative
// entry — the server is live but useless for this key until an update
// invalidates the verdict.
func (s *Selector) RecordAnswer(key string, server int, entries int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if server < 0 || server >= min(len(s.servers), routable) {
		return
	}
	s.cache.touch(key, true).record(server, entries)
}

// RecordDerived feeds the routing cache routes a lookup derived instead
// of measured: counts[server] > 0 is the number of entries the lookup
// of key received that are homed on server, a lower bound on what
// server would answer. Each is recorded only where the cache holds no
// answer for server, positive or negative, so a derived route never
// overrides a measured one and is never a negative; the server's next
// real answer overwrites it. Nor does a derived route take the place of
// another route: once the slot holds cacheServersPerKey routes, nothing
// more is derived. A slow server gets none, so that it is not lifted
// into the cached tier ahead of healthy servers it was never compared
// with. A selector that orders by zone records none: zone distance, not
// routes, orders its uncached tiers.
func (s *Selector) RecordDerived(key string, counts []int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dists != nil {
		return
	}
	limit := s.slowLimitLocked()
	var sl *slot
	for server, c := range counts[:min(len(counts), len(s.servers), routable)] {
		if c <= 0 || s.servers[server].slowerThan(limit) {
			continue
		}
		if sl == nil {
			sl = s.cache.touch(key, true)
		}
		if sl.full() {
			return
		}
		if !sl.holds(server) {
			sl.record(server, c)
		}
	}
}

// derivableLocked reports whether RecordDerived could record a route in
// sl: the slot has room for one, and some server that is not slow has
// no answer in it.
func (s *Selector) derivableLocked(sl *slot) bool {
	if sl.full() {
		return false
	}
	limit := s.slowLimitLocked()
	for server := range s.servers[:min(len(s.servers), routable)] {
		if !sl.holds(server) && !s.servers[server].slowerThan(limit) {
			return true
		}
	}
	return false
}

// Invalidate drops the whole routing-cache entry for a key (a place
// rewrote the key's entire layout).
func (s *Selector) Invalidate(key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache.invalidate(key) {
		s.opt.Metrics.Invalidations.Inc()
	}
}

// InvalidateNegatives drops a key's negative cache entries (an add or
// delete may have changed which servers hold entries, so "answered
// empty" is no longer trustworthy); positive entries self-correct on
// the next answer.
func (s *Selector) InvalidateNegatives(key string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache.invalidateNegatives(key) {
		s.opt.Metrics.Invalidations.Inc()
	}
}

// tiers for order construction, best first.
const (
	tierCached   = 0 // cache says this server answered the key with entries
	tierHealthy  = 1 // no adverse signal
	tierSlow     = 2 // healthy but EWMA far behind the best healthy peer
	tierHalfOpen = 3 // open, but due one recovery trial
	tierNegative = 4 // cache says the server answered this key empty
	tierOpen     = 5 // failing; skipped until everything better is exhausted
)

// Order is OrderMulti for one key.
func (s *Selector) Order(key string, base []int) []int {
	return s.OrderMulti([]string{key}, base)
}

// Routes is what the routing cache held for one key when OrderRoutes
// built its order: the order's cached tier, with each server's recorded
// answer size, and whether a derived route could be added to it.
type Routes struct {
	tier     [cacheServersPerKey]route // largest answer first; unused ones (entries 0) trail
	complete bool
}

// Cached returns the i-th server of the order's cached tier and the
// size of its recorded answer; ok is false past the tier's end.
func (r *Routes) Cached(i int) (server, entries int, ok bool) {
	if i >= len(r.tier) || r.tier[i].entries == 0 {
		return 0, 0, false
	}
	return int(r.tier[i].server), int(r.tier[i].entries), true
}

// Complete reports whether there was nothing to derive for the key
// (see RecordDerived): the key's slot had no room for another route,
// every server that is not slow had an answer in it, or the selector
// derives no routes.
func (r *Routes) Complete() bool { return r.complete }

// OrderRoutes is Order, plus the key's routes read under the same lock.
// A nil selector, and one that orders by zone, report an empty cached
// tier and nothing to derive: the lookup keeps their order as it is.
func (s *Selector) OrderRoutes(key string, base []int) ([]int, Routes) {
	if s == nil {
		return base, Routes{complete: true}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	order := s.orderKeysLocked([]string{key}, base)
	if s.dists != nil {
		return order, Routes{complete: true}
	}
	var r Routes
	sl := s.cache.peek(key)
	if sl == nil {
		return order, r
	}
	k := 0
	for _, rt := range sl.pos {
		if rt.entries == 0 {
			break
		}
		if int(rt.server) < len(s.servers) && !s.servers[rt.server].open {
			r.tier[k] = rt
			k++
		}
	}
	r.complete = !s.derivableLocked(sl)
	return order, r
}

// OrderMulti reorders the driver's seeded permutation base for the
// lookup of keys: cached answering servers first (largest recorded
// answers leading), then healthy servers, slow servers, half-open
// trials, negative-cached servers, and open servers last. Cache votes
// are pooled across the keys: a server's positive vote is its recorded
// answer size, summed, and a server is negative only if every cached
// key recorded it empty. Servers keep base's relative order inside each
// tier, and a cold selector returns base untouched — seeded runs only
// deviate once real signal exists. base is never mutated. A nil or cold
// selector returns base itself, so a caller that will modify the order
// must own base; any other order is a new slice the caller owns.
func (s *Selector) OrderMulti(keys []string, base []int) []int {
	if s == nil {
		return base
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.orderKeysLocked(keys, base)
}

// orderKeysLocked is OrderMulti under s.mu.
func (s *Selector) orderKeysLocked(keys []string, base []int) []int {
	if s.coldLocked() {
		return base
	}
	if len(s.posIdx) < len(s.servers) {
		s.posIdx = make([]int, len(s.servers))
	}
	pos := s.pos[:0]
	var neg serverBits
	cachedKeys := 0
	for _, key := range keys {
		sl := s.cache.touch(key, false)
		if sl == nil || sl.empty() {
			continue
		}
		if cachedKeys == 0 {
			neg = sl.neg
		} else {
			for i := range neg {
				neg[i] &= sl.neg[i]
			}
		}
		cachedKeys++
		for _, r := range sl.pos {
			if r.entries == 0 {
				break
			}
			sv := int(r.server)
			if s.posIdx[sv] == 0 {
				pos = append(pos, posEntry{server: sv})
				s.posIdx[sv] = len(pos)
			}
			pos[s.posIdx[sv]-1].entries += int(r.entries)
		}
	}
	sortPos(pos)
	for i, p := range pos {
		s.posIdx[p.server] = i + 1
	}
	if len(pos) > 0 {
		s.opt.Metrics.CacheHits.Inc()
	} else {
		s.opt.Metrics.CacheMisses.Inc()
	}
	order := s.orderLocked(base, neg)
	for _, p := range pos {
		s.posIdx[p.server] = 0
	}
	s.pos = pos
	return order
}

// OrderGlobal reorders base by scoreboard health (no key, no cache) for
// update routing. prefer names the servers that can take the update
// without forwarding it (an entry's homes), the way OrderMulti takes
// cached answers: those whose circuit is closed lead, in the order
// health gives them, and one whose circuit is open or half-open keeps
// its place at the back. A nil or cold selector moves prefer's servers
// to the front of base in place, in base's order, and returns base.
func (s *Selector) OrderGlobal(base, prefer []int) []int {
	if s != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if !s.coldLocked() {
			return lead(s.orderLocked(base, serverBits{}), prefer, s.servers)
		}
	}
	return lead(base, prefer, nil)
}

// lead moves the servers of order that are in prefer, bar those with an
// open circuit on servers, to the front of order in place, keeping the
// relative order of both groups.
func lead(order, prefer []int, servers []serverState) []int {
	k := 0
	for i, sv := range order {
		if !slices.Contains(prefer, sv) || sv >= 0 && sv < len(servers) && servers[sv].open {
			continue
		}
		copy(order[k+1:i+1], order[k:i])
		order[k] = sv
		k++
	}
	return order
}

// coldLocked reports whether ordering has no signal to act on: nothing
// observed, nothing cached, and no zone distances. A cold selector
// returns the caller's base untouched (the byte-identity guarantee).
func (s *Selector) coldLocked() bool {
	return s.observations == 0 && s.cache.len() == 0 && s.dists == nil
}

// orderLocked builds the tiered order. The cached tier is the servers
// with a posIdx, ranked by it; neg holds the servers cached negative for
// the key(s). It reads the scoreboard and changes nothing in it: a
// half-open trial is spent by the call that reaches the server
// (startTrial), not by an order that may never get that far.
func (s *Selector) orderLocked(base []int, neg serverBits) []int {
	now := s.clock.Now()
	limit := s.slowLimitLocked()
	rank := func(server int) int {
		if server < len(s.posIdx) {
			return s.posIdx[server]
		}
		return 0
	}
	tierOf := func(server int) uint8 {
		if server < 0 || server >= len(s.servers) {
			return tierHealthy
		}
		st := &s.servers[server]
		if st.open {
			if trialDue(st, now) {
				return tierHalfOpen
			}
			return tierOpen
		}
		if rank(server) > 0 {
			return tierCached
		}
		if neg.has(server) {
			return tierNegative
		}
		if st.slowerThan(limit) {
			return tierSlow
		}
		return tierHealthy
	}

	// A counting sort by tier, stable, so servers keep base's relative
	// order inside each tier: tier t is out[start[t]:start[t+1]].
	if cap(s.tiers) < len(base) {
		s.tiers = make([]uint8, len(base))
	}
	tiers := s.tiers[:len(base)]
	var start [tierOpen + 2]int
	for i, server := range base {
		tiers[i] = tierOf(server)
		start[tiers[i]+1]++
	}
	for t := 1; t < len(start); t++ {
		start[t] += start[t-1]
	}
	out := make([]int, len(base))
	next := start
	for i, server := range base {
		out[next[tiers[i]]] = server
		next[tiers[i]]++
	}
	// The cached tier orders by recorded answer size (rank in pos), not
	// base order: the fattest known answer is the cheapest first probe.
	slices.SortFunc(out[:start[tierHealthy]], func(a, b int) int { return cmp.Compare(rank(a), rank(b)) })
	// Zone ordering: within every other tier, nearest zone first (the
	// cached tier's recorded-answer ranking wins over distance — a known
	// fat answer beats a near empty one). Stable, so equidistant servers
	// keep base's relative order.
	if s.dists != nil {
		for t := tierHealthy; t <= tierOpen; t++ {
			sortByDist(out[start[t]:start[t+1]], s.dists)
		}
	}
	return out
}

// slowLimitLocked returns the EWMA latency past which a closed server
// is slow (tierSlow): slowFactor times the best closed server's, or 0
// while no closed server has a sample.
func (s *Selector) slowLimitLocked() float64 {
	best := 0.0
	for i := range s.servers {
		st := &s.servers[i]
		if !st.open && st.samples > 0 && (best == 0 || st.ewma < best) {
			best = st.ewma
		}
	}
	return slowFactor * best
}

// slowerThan reports whether st's EWMA latency is past limit, a
// slowLimitLocked result.
func (st *serverState) slowerThan(limit float64) bool {
	return limit > 0 && st.samples > 0 && st.ewma > limit
}

// trialDue reports whether an open server is due a half-open trial: one
// per probeAfter window since its last failure, and none while an
// earlier trial is out (for up to another window).
func trialDue(st *serverState, now time.Time) bool {
	return now.Sub(st.lastFail) >= probeAfter && (!st.probing || now.Sub(st.probedAt) >= probeAfter)
}

// startTrial runs as a call leaves for server (Observed.Call). If the
// server is open and due a trial, this call is that trial: it is
// counted, and orders put the server back behind everything until the
// call's outcome is recorded.
func (s *Selector) startTrial(server int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if server < 0 || server >= len(s.servers) || !s.servers[server].open {
		return
	}
	st := &s.servers[server]
	if now := s.clock.Now(); trialDue(st, now) {
		st.probing = true
		st.probedAt = now
		s.opt.Metrics.HalfOpenProbes.Inc()
	}
}

// ServerHealth is one server's scoreboard snapshot.
type ServerHealth struct {
	// EWMA is the smoothed call latency (0 until a success is recorded).
	EWMA time.Duration
	// Samples is the number of successes folded into EWMA.
	Samples int64
	// ConsecFails is the current failure streak.
	ConsecFails int
	// Open reports whether the server is demoted behind all others.
	Open bool
}

// Health snapshots the scoreboard, for admin gauges and tests.
func (s *Selector) Health() []ServerHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ServerHealth, len(s.servers))
	for i := range s.servers {
		st := &s.servers[i]
		out[i] = ServerHealth{
			EWMA:        time.Duration(st.ewma),
			Samples:     st.samples,
			ConsecFails: st.consecFails,
			Open:        st.open,
		}
	}
	return out
}

// PresumedDead classifies each server for the anti-entropy repair
// daemon: true means the circuit is open (failThreshold consecutive
// server-down failures without a successful probe since), so repair
// planning should neither query nor push to it. The slice is a copy.
// Together with FailureEpoch this satisfies the node.RepairHealth
// contract.
func (s *Selector) PresumedDead() []bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]bool, len(s.servers))
	for i := range s.servers {
		out[i] = s.servers[i].open
	}
	return out
}

// FailureEpoch returns a monotone counter that advances on every
// recorded server-attributable failure. The repair daemon skips a
// sweep entirely — zero wire traffic — while the epoch matches the one
// it last converged at, so a healthy cluster pays nothing for having
// repair enabled.
func (s *Selector) FailureEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failures
}

// CachedKeys returns the number of keys currently in the routing cache.
func (s *Selector) CachedKeys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cache.len()
}

// posEntry is one positive routing-cache record: server answered with
// this many entries last time.
type posEntry struct {
	server  int
	entries int
}

// sortPos orders positive entries by answer size descending, server id
// ascending for determinism.
func sortPos(pos []posEntry) {
	slices.SortFunc(pos, func(a, b posEntry) int {
		return cmp.Or(cmp.Compare(b.entries, a.entries), cmp.Compare(a.server, b.server))
	})
}

// sortByDist stably orders servers by zone distance ascending. Ids
// beyond the distance cache (a joiner the topology has not covered
// yet) count as maximally distant.
func sortByDist(servers []int, dists []int) {
	d := func(sv int) int {
		if sv < 0 || sv >= len(dists) {
			return topo.DistCrossRegion
		}
		return dists[sv]
	}
	slices.SortStableFunc(servers, func(a, b int) int { return cmp.Compare(d(a), d(b)) })
}
