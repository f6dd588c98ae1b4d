// Package core implements the paper's primary contribution: a partial
// lookup service (Sec. 2) managing many keys over a cluster of lookup
// servers, where each lookup returns at least t entries rather than the
// full entry set.
//
// Service is the public API surface. Each key is managed by a
// placement strategy — the paper's five from Sec. 3 plus the
// KeyPartition baseline and the MultiProbe consistent-hashing
// extension; different keys may use different
// strategies ("frequently updated keys require strategies with small
// update costs, while static keys want low lookup costs and fairness"),
// selected per key, by a classifier, or by a service-wide default.
//
// The service runs over any transport.Caller: the in-process cluster
// (cluster.New) for simulation and testing, or transport.NewClient for
// a real TCP deployment of cmd/plsd daemons.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/entry"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Re-exported protocol types, so API consumers need only this package.
type (
	// Entry is one value associated with a key.
	Entry = entry.Entry
	// Config selects a placement strategy and its parameter.
	Config = wire.Config
	// Scheme identifies one of the placement strategies below.
	Scheme = wire.Scheme
)

// The five placement strategies of Sec. 3, plus two extensions.
const (
	FullReplication = wire.FullReplication
	Fixed           = wire.Fixed
	RandomServer    = wire.RandomServer
	RoundRobin      = wire.RoundRobin
	Hash            = wire.Hash
	// KeyPartition is the traditional hashing baseline (Fig. 1
	// center): the key's complete entry set on one hashed server.
	KeyPartition = wire.KeyPartition
	// MultiProbe is the multi-probe consistent hashing extension
	// (arXiv:1505.00062): Hash-y's protocol shape over ring-based
	// assignment, so membership changes move ~1/(n+1) of the entries
	// instead of re-homing nearly everything.
	MultiProbe = wire.MultiProbe
)

// Classifier maps a key to its strategy configuration. Returning
// ok=false defers to the service default.
type Classifier func(key string) (Config, bool)

// Service is a multi-key partial lookup service.
type Service struct {
	caller     transport.Caller
	defaultCfg Config
	classifier Classifier
	policy     LookupPolicy
	metrics    *telemetry.LookupMetrics
	// selector, when set, adapts probe orders to observed server health
	// and per-key routing history; drivers and the lookup transport
	// chain are wired to it at construction.
	selector *selector.Selector
	// lookupCaller is the transport lookups probe through: the raw
	// caller, possibly observed by the selector scoreboard, possibly
	// wrapped by a transport.Retry adding retries/hedging per probe.
	lookupCaller transport.Caller

	mu      sync.Mutex
	rng     *stats.RNG
	perKey  map[string]Config
	drivers map[Config]*strategy.Driver
}

// Option configures a Service.
type Option func(*Service)

// WithDefaultConfig sets the strategy used for keys with no explicit or
// classified configuration. The default is Round-Robin with y=1.
func WithDefaultConfig(cfg Config) Option {
	return func(s *Service) { s.defaultCfg = cfg }
}

// WithKeyConfig pins one key to a configuration.
func WithKeyConfig(key string, cfg Config) Option {
	return func(s *Service) { s.perKey[key] = cfg }
}

// WithClassifier installs a key classifier consulted for keys that have
// no pinned configuration.
func WithClassifier(c Classifier) Option {
	return func(s *Service) { s.classifier = c }
}

// WithSeed seeds the service's randomness (server selection, probe
// order). Services with equal seeds over equal clusters behave
// identically. The default seed is 1.
func WithSeed(seed uint64) Option {
	return func(s *Service) { s.rng = stats.NewRNG(seed) }
}

// WithLookupPolicy installs the resilience policy for the lookup path:
// per-lookup deadline, bounded per-probe retries with exponential
// backoff and jitter, and optional hedged requests (transport.Retry
// applies all but the deadline). The zero policy
// (the default) keeps the original single-attempt, no-deadline path.
func WithLookupPolicy(p LookupPolicy) Option {
	return func(s *Service) { s.policy = p }
}

// WithLookupMetrics instruments the lookup path: every PartialLookup
// records its achieved answer size, probes issued, latency, and
// satisfaction, and the resilience policy records retries, hedges
// fired/won, and deadline expiries. The default (nil) records nothing
// and adds no overhead.
func WithLookupMetrics(m *telemetry.LookupMetrics) Option {
	return func(s *Service) { s.metrics = m }
}

// WithSelector installs the adaptive selection subsystem: a per-server
// scoreboard fed by every lookup probe's outcome, plus a per-key
// routing cache. Strategy drivers then visit cached answering servers
// first and demote failing or slow servers, cutting the paper's client
// lookup cost (servers contacted, Sec. 4.2) under faults. A cold
// selector orders servers exactly like the seeded permutations, so
// enabling it never perturbs a fault-free seeded run's first probes.
func WithSelector(sel *selector.Selector) Option {
	return func(s *Service) { s.selector = sel }
}

// NewService returns a service over the given transport.
func NewService(caller transport.Caller, opts ...Option) (*Service, error) {
	if caller == nil {
		return nil, errors.New("core: nil caller")
	}
	if caller.NumServers() <= 0 {
		return nil, errors.New("core: caller reports no servers")
	}
	s := &Service{
		caller:     caller,
		defaultCfg: Config{Scheme: RoundRobin, Y: 1},
		rng:        stats.NewRNG(1),
		perKey:     make(map[string]Config),
		drivers:    make(map[Config]*strategy.Driver),
	}
	for _, opt := range opts {
		opt(s)
	}
	for key, cfg := range s.perKey {
		if err := cfg.Validate(caller.NumServers()); err != nil {
			return nil, fmt.Errorf("core: config for key %q: %w", key, err)
		}
	}
	if err := s.defaultCfg.Validate(caller.NumServers()); err != nil {
		return nil, fmt.Errorf("core: default config: %w", err)
	}
	if s.selector != nil && s.selector.N() != caller.NumServers() {
		return nil, fmt.Errorf("core: selector tracks %d servers, caller has %d",
			s.selector.N(), caller.NumServers())
	}
	// Lookup transport chain, bottom-up: raw caller → selector observe
	// hook (scores every attempt) → retry/hedging policy (each attempt
	// it issues is scored individually). The jitter RNG is split off only
	// when the policy retries or hedges, so a single-attempt service's
	// driver streams stay as they were.
	s.lookupCaller = selector.Observe(s.caller, s.selector)
	if r := s.policy.Retry; r.Attempts > 1 || r.HedgeAfter > 0 {
		s.lookupCaller = transport.NewRetry(s.lookupCaller, r, s.rng.Split(), s.metrics)
	}
	return s, nil
}

// ConfigFor returns the configuration that manages key.
func (s *Service) ConfigFor(key string) Config {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.configForLocked(key)
}

func (s *Service) configForLocked(key string) Config {
	if cfg, ok := s.perKey[key]; ok {
		return cfg
	}
	if s.classifier != nil {
		if cfg, ok := s.classifier(key); ok {
			if cfg.Validate(s.caller.NumServers()) == nil {
				return cfg
			}
		}
	}
	return s.defaultCfg
}

// SetKeyConfig pins key to cfg for subsequent operations. Changing the
// strategy of an already-placed key takes effect on the next Place.
func (s *Service) SetKeyConfig(key string, cfg Config) error {
	if err := cfg.Validate(s.caller.NumServers()); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.perKey[key] = cfg
	return nil
}

// Batch item types, re-exported so API consumers need only this package.
type (
	// PlaceItem is one key's place operation inside a batch.
	PlaceItem = strategy.PlaceItem
	// AddItem is one key's add operation inside a batch.
	AddItem = strategy.AddItem
)

// LookupOutcome is one key's result inside a PartialLookupBatch reply.
type LookupOutcome struct {
	Result strategy.Result
	Err    error
}

// Place sets the complete entry set for a key: place(k, {v1..vh}). It
// is a PlaceBatch of one.
func (s *Service) Place(ctx context.Context, key string, entries []Entry) error {
	return s.PlaceBatch(ctx, []PlaceItem{{Key: key, Entries: entries}})[0]
}

// Add inserts one entry: add(k, v). It is an AddBatch of one.
func (s *Service) Add(ctx context.Context, key string, v Entry) error {
	return s.AddBatch(ctx, []AddItem{{Key: key, Entry: v}})[0]
}

// Delete removes one entry: delete(k, v).
func (s *Service) Delete(ctx context.Context, key string, v Entry) error {
	return s.update("delete", []string{key}, func(int) bool { return entry.Valid(v) },
		func(d *strategy.Driver, _ []int) []error {
			return []error{d.Delete(ctx, s.caller, key, v)}
		})[0]
}

// PlaceBatch executes place(k, {v1..vh}) for many keys in one call,
// batching keys that share a strategy configuration into single wire
// envelopes — one round trip then serves every key sharing a route. It
// returns one error slot per item (nil on success); per-item failures
// do not abort the rest of the batch.
func (s *Service) PlaceBatch(ctx context.Context, items []PlaceItem) []error {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	valid := func(i int) bool {
		for _, v := range items[i].Entries {
			if !entry.Valid(v) {
				return false
			}
		}
		return true
	}
	return s.update("place", keys, valid, func(d *strategy.Driver, idxs []int) []error {
		return d.PlaceBatch(ctx, s.caller, pick(items, idxs))
	})
}

// AddBatch executes add(k, v) for many keys in one call; see PlaceBatch
// for batching and error semantics.
func (s *Service) AddBatch(ctx context.Context, items []AddItem) []error {
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.Key
	}
	valid := func(i int) bool { return entry.Valid(items[i].Entry) }
	return s.update("add", keys, valid, func(d *strategy.Driver, idxs []int) []error {
		return d.AddBatch(ctx, s.caller, pick(items, idxs))
	})
}

// update is the one path behind Place, Add and Delete, single or
// batched: reject items carrying an empty entry and hand each strategy
// configuration's share of the rest to its driver through send.
func (s *Service) update(op string, keys []string, valid func(i int) bool, send func(d *strategy.Driver, idxs []int) []error) []error {
	errs := make([]error, len(keys))
	for i, key := range keys {
		if !valid(i) {
			errs[i] = fmt.Errorf("core: %s %q: invalid empty entry", op, key)
		}
	}
	for _, g := range s.groupByConfig(keys, errs) {
		for j, err := range send(g.driver, g.idxs) {
			errs[g.idxs[j]] = err
		}
	}
	return errs
}

// PartialLookup retrieves at least t entries for key when possible:
// partial_lookup(k, t), a PartialLookupBatch of one. Fewer than t
// entries in the result is not an error — check Result.Satisfied(t) —
// because a thin answer is an expected condition under deletes and
// failures (Sec. 5.2).
//
// Under a LookupPolicy with a Timeout (or a caller-supplied deadline),
// a lookup that runs out of time before gathering t entries returns
// whatever it has plus a *PartialError matching ErrPartialResult, so
// callers can distinguish "the system holds fewer than t entries" from
// "the deadline cut the probe sequence short".
func (s *Service) PartialLookup(ctx context.Context, key string, t int) (strategy.Result, error) {
	o := s.PartialLookupBatch(ctx, []string{key}, t)[0]
	return o.Result, o.Err
}

// PartialLookupBatch executes partial_lookup(k, t) for many keys in one
// call. Keys sharing a strategy configuration share probe round trips.
// The reply is per key, parallel to keys; see PartialLookup for what an
// unsatisfied Result and a *PartialError mean.
func (s *Service) PartialLookupBatch(ctx context.Context, keys []string, t int) []LookupOutcome {
	out := make([]LookupOutcome, len(keys))
	var start time.Time
	if s.metrics != nil {
		start = time.Now()
	}
	if s.policy.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.policy.Timeout)
		defer cancel()
	}
	for _, g := range s.groupByConfig(keys, nil) {
		results, errs := g.driver.PartialLookupBatch(ctx, s.lookupCaller, pick(keys, g.idxs), t)
		for j, i := range g.idxs {
			res, err := results[j], errs[j]
			if ctx.Err() != nil && (err != nil || !res.Satisfied(t)) {
				cause := err
				if cause == nil {
					cause = ctx.Err()
				}
				err = &PartialError{Key: keys[i], Got: len(res.Entries), Want: t, Cause: cause}
			}
			out[i] = LookupOutcome{Result: res, Err: err}
		}
	}
	if m := s.metrics; m != nil {
		elapsed := time.Since(start)
		for _, o := range out {
			m.Lookups.Inc()
			m.AchievedT.Observe(int64(len(o.Result.Entries)))
			m.Probes.Observe(int64(o.Result.Contacted))
			m.Latency.ObserveDuration(elapsed)
			if o.Result.Satisfied(t) {
				m.Satisfied.Inc()
			} else {
				m.Unsatisfied.Inc()
			}
			if errors.Is(o.Err, ErrPartialResult) {
				m.DeadlineExpired.Inc()
			}
		}
	}
	return out
}

// configGroup is the share of a request one strategy configuration
// manages: its driver plus the indexes of the keys it covers, in input
// order.
type configGroup struct {
	cfg    Config
	driver *strategy.Driver
	idxs   []int
}

// groupByConfig partitions key indexes by the config managing each key,
// preserving first-appearance order so requests consume driver
// randomness deterministically. Indexes whose errs slot is already set
// (failed validation; lookups pass nil) are skipped.
func (s *Service) groupByConfig(keys []string, errs []error) []configGroup {
	s.mu.Lock()
	defer s.mu.Unlock()
	var groups []configGroup
	for i, key := range keys {
		if errs != nil && errs[i] != nil {
			continue
		}
		cfg := s.configForLocked(key)
		gi := slices.IndexFunc(groups, func(g configGroup) bool { return g.cfg == cfg })
		if gi < 0 {
			gi = len(groups)
			groups = append(groups, configGroup{cfg: cfg, driver: s.driverForConfigLocked(cfg)})
		}
		groups[gi].idxs = append(groups[gi].idxs, i)
	}
	return groups
}

// driverForConfigLocked returns (creating if needed) a config's driver.
func (s *Service) driverForConfigLocked(cfg Config) *strategy.Driver {
	d, ok := s.drivers[cfg]
	if !ok {
		d = strategy.MustNew(cfg, s.rng.Split())
		d.SetSelector(s.selector)
		s.drivers[cfg] = d
	}
	return d
}

// pick returns the items at idxs, in that order.
func pick[T any](items []T, idxs []int) []T {
	sub := make([]T, len(idxs))
	for j, i := range idxs {
		sub[j] = items[i]
	}
	return sub
}

// CostFunc scores an entry for a preference-aware lookup; lower is
// better (e.g. measured latency to the provider the entry names).
type CostFunc func(Entry) float64

// PreferenceLookup implements the Sec. 7.1 variation: return the t
// best entries under the client's cost function. Because servers store
// only partial entry sets, the client over-fetches — it probes for
// overfetch×t entries (minimum t) and keeps the t cheapest retrieved.
// The result is the best available approximation of the true top-t;
// with overfetch spanning the full coverage it is exact.
func (s *Service) PreferenceLookup(ctx context.Context, key string, t int, overfetch float64, cost CostFunc) (strategy.Result, error) {
	if cost == nil {
		return strategy.Result{}, errors.New("core: nil cost function")
	}
	if overfetch < 1 {
		overfetch = 1
	}
	target := int(float64(t) * overfetch)
	if target < t {
		target = t
	}
	res, err := s.PartialLookup(ctx, key, target)
	if err != nil {
		return res, err
	}
	sort.SliceStable(res.Entries, func(i, j int) bool {
		return cost(res.Entries[i]) < cost(res.Entries[j])
	})
	if len(res.Entries) > t {
		res.Entries = res.Entries[:t]
	}
	return res, nil
}
