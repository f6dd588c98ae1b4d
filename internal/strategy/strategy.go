// Package strategy implements the client side of the seven placement
// strategies — the paper's five partial-lookup schemes (Sec. 3 and
// Sec. 5) plus the KeyPartition baseline and MultiProbe-y: routing
// place / add / delete requests to an initial server, and the
// per-scheme lookup sequencing — single-probe for the replicated
// schemes and KeyPartition, random probing for RandomServer-x, Hash-y
// and MultiProbe-y, and the deterministic s, s+y, s+2y, ... walk for
// Round-Robin-y with random fallback under failures.
package strategy

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrNoLiveServers is returned when every server the driver tried is
// down, so the lookup or update could not be serviced at all.
var ErrNoLiveServers = errors.New("strategy: no live servers")

// Result is the outcome of one partial lookup.
type Result struct {
	// Entries are the distinct entries retrieved, in retrieval order.
	Entries []entry.Entry
	// Contacted is the number of servers that processed a probe: the
	// paper's client lookup cost (Sec. 4.2).
	Contacted int
}

// Satisfied reports whether the lookup met its target answer size: the
// paper considers a lookup failed "if it retrieves less than t entries"
// (Sec. 4.4).
func (r Result) Satisfied(t int) bool { return len(r.Entries) >= t }

// Driver executes one key's strategy against a cluster. Driver is safe
// for concurrent use: its only mutable state is the RNG, which is
// guarded so a core.Service can share one driver across goroutines.
type Driver struct {
	cfg wire.Config
	// sel, when non-nil, reorders the seeded visiting permutations by
	// scoreboard health and the per-key routing cache. Set it before
	// sharing the driver across goroutines.
	sel *selector.Selector

	mu  sync.Mutex
	rng *stats.RNG
}

// perm draws a random server visiting order under the RNG lock.
func (d *Driver) perm(n int) []int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.rng.Perm(n)
}

// orderFor is the selector-aware visiting order for one key's lookup:
// the usual seeded permutation, reordered so cached answering servers
// lead and demoted servers trail. With no selector — or a cold one —
// it is exactly perm, so seeded runs are byte-identical.
func (d *Driver) orderFor(key string, n int) []int {
	p := d.perm(n)
	if d.sel == nil {
		return p
	}
	return d.sel.Order(key, p)
}

// orderGlobal is the selector-aware order for traffic with no single
// key (update routing, batch envelope delivery): health-weighted only.
func (d *Driver) orderGlobal(n int) []int {
	p := d.perm(n)
	if d.sel == nil {
		return p
	}
	return d.sel.OrderGlobal(p)
}

// SetSelector attaches the adaptive selection subsystem. Call it once,
// right after New, before the driver is shared across goroutines; a nil
// selector (the default) keeps the pure seeded permutations.
func (d *Driver) SetSelector(sel *selector.Selector) { d.sel = sel }

// New returns a driver for the given strategy configuration.
func New(cfg wire.Config, rng *stats.RNG) (*Driver, error) {
	if !cfg.Scheme.Valid() {
		return nil, fmt.Errorf("strategy: invalid scheme %d", cfg.Scheme)
	}
	if rng == nil {
		return nil, errors.New("strategy: nil RNG")
	}
	return &Driver{cfg: cfg, rng: rng}, nil
}

// MustNew is New for static configurations known to be valid; it panics
// on error (test and benchmark convenience).
func MustNew(cfg wire.Config, rng *stats.RNG) *Driver {
	d, err := New(cfg, rng)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the driver's strategy configuration.
func (d *Driver) Config() wire.Config { return d.cfg }

// Place executes place(k, entries): send the batch to an initial server
// (random, or server 0 for Round-y whose coordinator lives there) which
// distributes it per the scheme.
func (d *Driver) Place(ctx context.Context, c transport.Caller, key string, entries []entry.Entry) error {
	if err := d.cfg.Validate(c.NumServers()); err != nil {
		return err
	}
	msg := wire.Place{Key: key, Config: d.cfg, Entries: toStrings(entries)}
	err := d.sendUpdate(ctx, c, msg)
	// A place rewrites the key's whole layout: any cached route is void.
	// Invalidate AFTER the server acks (and conservatively on error —
	// the update may have partially landed): invalidating before the
	// send opens a window where a concurrent lookup re-caches the old
	// layout and the stale route outlives the acked update.
	d.sel.Invalidate(key)
	return err
}

// Add executes add(k, v).
func (d *Driver) Add(ctx context.Context, c transport.Caller, key string, v entry.Entry) error {
	err := d.sendUpdate(ctx, c, wire.Add{Key: key, Config: d.cfg, Entry: string(v)})
	// The new entry may land on a server the cache marked empty; drop
	// negatives only after the ack (see Place for the ordering rationale).
	d.sel.InvalidateNegatives(key)
	return err
}

// Delete executes delete(k, v).
func (d *Driver) Delete(ctx context.Context, c transport.Caller, key string, v entry.Entry) error {
	err := d.sendUpdate(ctx, c, wire.Delete{Key: key, Config: d.cfg, Entry: string(v)})
	// Deletes shift which servers hold entries; drop stale negatives so
	// probing re-learns the layout — after the ack, never before.
	d.sel.InvalidateNegatives(key)
	return err
}

// sendUpdate routes an update to its initial server: a random live
// server, except Round-y updates which must reach a coordinator
// (server 0 in the paper's base scheme, Sec. 5.4; with replicated
// coordinators — footnote 1 — the lowest-numbered live one).
func (d *Driver) sendUpdate(ctx context.Context, c transport.Caller, msg wire.Message) error {
	if d.cfg.Scheme == wire.KeyPartition {
		// Traditional hashing: the client knows the responsible
		// server and contacts it directly; no other server can help.
		key := ""
		switch m := msg.(type) {
		case wire.Place:
			key = m.Key
		case wire.Add:
			key = m.Key
		case wire.Delete:
			key = m.Key
		}
		return d.callAck(ctx, c, node.PartitionServer(key, c.NumServers()), msg)
	}
	if d.cfg.Scheme == wire.RoundRobin {
		coords := coordinatorCount(d.cfg, c.NumServers())
		var lastErr error
		for server := 0; server < coords; server++ {
			err := d.callAck(ctx, c, server, msg)
			if err == nil {
				return nil
			}
			if !errors.Is(err, transport.ErrServerDown) {
				return err
			}
			lastErr = err
		}
		return fmt.Errorf("%w: all Round-y coordinators down: %v", ErrNoLiveServers, lastErr)
	}
	var lastErr error
	for _, server := range d.orderGlobal(c.NumServers()) {
		err := d.callAck(ctx, c, server, msg)
		if err == nil {
			return nil
		}
		if !errors.Is(err, transport.ErrServerDown) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("%w: %v", ErrNoLiveServers, lastErr)
}

func (d *Driver) callAck(ctx context.Context, c transport.Caller, server int, msg wire.Message) error {
	reply, err := c.Call(ctx, server, msg)
	if err != nil {
		return err
	}
	ack, ok := reply.(wire.Ack)
	if !ok {
		return fmt.Errorf("strategy: unexpected reply %T from server %d", reply, server)
	}
	if ack.Err != "" {
		return fmt.Errorf("strategy: server %d: %s", server, ack.Err)
	}
	return nil
}

// PartialLookup executes partial_lookup(k, t), probing servers per the
// scheme until at least t distinct entries are retrieved or every
// server has been tried. Retrieving fewer than t entries is not an
// error (check Result.Satisfied); an error means no server could be
// reached at all or the configuration is unusable.
func (d *Driver) PartialLookup(ctx context.Context, c transport.Caller, key string, t int) (Result, error) {
	if t <= 0 {
		return Result{}, fmt.Errorf("strategy: partial lookup requires t > 0, got %d", t)
	}
	switch d.cfg.Scheme {
	case wire.FullReplication, wire.Fixed:
		return d.lookupSingle(ctx, c, key, t)
	case wire.RoundRobin:
		return d.lookupRoundRobin(ctx, c, key, t)
	case wire.KeyPartition:
		return d.lookupPartition(ctx, c, key, t)
	default: // RandomServer, Hash, MultiProbe
		return d.lookupRandomOrder(ctx, c, key, t)
	}
}

// lookupPartition contacts the single server the key hashes to — the
// traditional hashing baseline of Fig. 1. There is no failover: if
// that server is down, the key is unreachable ("if S2 is down ...",
// Sec. 1 — the weakness partial lookups remove).
func (d *Driver) lookupPartition(ctx context.Context, c transport.Caller, key string, t int) (Result, error) {
	var res Result
	server := node.PartitionServer(key, c.NumServers())
	got, err := d.probe(ctx, c, server, key, t)
	if errors.Is(err, transport.ErrServerDown) {
		return res, fmt.Errorf("%w: partition server %d for key %q", ErrNoLiveServers, server, key)
	}
	if err != nil {
		return res, err
	}
	res.Contacted = 1
	seen := make(map[entry.Entry]struct{}, len(got))
	res.Entries = entry.Dedup(nil, seen, got)
	return res, nil
}

// lookupSingle contacts one live server chosen at random — the Full
// Replication / Fixed-x rule, where every server is identical so there
// is never a reason to probe a second one.
func (d *Driver) lookupSingle(ctx context.Context, c transport.Caller, key string, t int) (Result, error) {
	var res Result
	for _, server := range d.orderFor(key, c.NumServers()) {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		got, err := d.probe(ctx, c, server, key, t)
		if errors.Is(err, transport.ErrServerDown) {
			continue
		}
		if err != nil {
			return res, err
		}
		res.Contacted = 1
		seen := make(map[entry.Entry]struct{}, len(got))
		res.Entries = entry.Dedup(nil, seen, got)
		return res, nil
	}
	return res, ErrNoLiveServers
}

// lookupRandomOrder contacts live servers in uniformly random order,
// merging distinct entries until the target is met — the RandomServer-x
// and Hash-y rule.
func (d *Driver) lookupRandomOrder(ctx context.Context, c transport.Caller, key string, t int) (Result, error) {
	var res Result
	seen := make(map[entry.Entry]struct{}, seenSizeHint(t))
	reached := false
	for _, server := range d.orderFor(key, c.NumServers()) {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		got, err := d.probe(ctx, c, server, key, t)
		if errors.Is(err, transport.ErrServerDown) {
			continue
		}
		if err != nil {
			return res, err
		}
		reached = true
		res.Contacted++
		res.Entries = entry.Dedup(res.Entries, seen, got)
		if len(res.Entries) >= t {
			return res, nil
		}
	}
	if !reached {
		return res, ErrNoLiveServers
	}
	return res, nil
}

// lookupRoundRobin starts at a random live server s and then walks the
// deterministic sequence s+y, s+2y, ... which maximizes new entries per
// probe (Sec. 3.4). If the walk hits a failed server or revisits one,
// it falls back to random order over the untried servers, as the paper
// prescribes ("if there are any server failures, choose random servers
// instead").
func (d *Driver) lookupRoundRobin(ctx context.Context, c transport.Caller, key string, t int) (Result, error) {
	var res Result
	n := c.NumServers()
	y := d.cfg.Y
	seen := make(map[entry.Entry]struct{}, seenSizeHint(t))
	tried := make([]bool, n)
	reached := false

	probeServer := func(server int) (done bool, err error) {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		tried[server] = true
		got, err := d.probe(ctx, c, server, key, t)
		if errors.Is(err, transport.ErrServerDown) {
			return false, nil
		}
		if err != nil {
			return false, err
		}
		reached = true
		res.Contacted++
		res.Entries = entry.Dedup(res.Entries, seen, got)
		return len(res.Entries) >= t, nil
	}

	// Find a random live starting server (scoreboard-weighted, cached
	// servers first, when a selector is attached).
	start := -1
	for _, server := range d.orderFor(key, n) {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		tried[server] = true
		got, err := d.probe(ctx, c, server, key, t)
		if errors.Is(err, transport.ErrServerDown) {
			continue
		}
		if err != nil {
			return res, err
		}
		reached = true
		res.Contacted++
		res.Entries = entry.Dedup(res.Entries, seen, got)
		start = server
		break
	}
	if start == -1 {
		return res, ErrNoLiveServers
	}
	if len(res.Entries) >= t {
		return res, nil
	}

	// Deterministic walk from the start until it would revisit a server
	// or hits a failure.
	for step := 1; step < n; step++ {
		server := (start + step*y) % n
		if tried[server] {
			break
		}
		wasReached := res.Contacted
		done, err := probeServer(server)
		if err != nil {
			return res, err
		}
		if done {
			return res, nil
		}
		if res.Contacted == wasReached {
			break // server was down: abandon the deterministic sequence
		}
	}

	// Random fallback over whatever remains untried.
	for _, server := range d.orderFor(key, n) {
		if tried[server] {
			continue
		}
		done, err := probeServer(server)
		if err != nil {
			return res, err
		}
		if done {
			return res, nil
		}
	}
	if !reached {
		return res, ErrNoLiveServers
	}
	return res, nil
}

// probe asks one server for up to t entries of key.
func (d *Driver) probe(ctx context.Context, c transport.Caller, server int, key string, t int) ([]entry.Entry, error) {
	reply, err := c.Call(ctx, server, wire.Lookup{Key: key, T: t})
	if err != nil {
		return nil, err
	}
	lr, ok := reply.(wire.LookupReply)
	if !ok {
		return nil, fmt.Errorf("strategy: unexpected lookup reply %T from server %d", reply, server)
	}
	if lr.Err != "" {
		return nil, fmt.Errorf("strategy: server %d: %s", server, lr.Err)
	}
	out := make([]entry.Entry, len(lr.Entries))
	for i, s := range lr.Entries {
		out[i] = entry.Entry(s)
	}
	// Feed the routing cache: this server answers this key with this
	// many entries (zero is a negative verdict).
	d.sel.RecordAnswer(key, server, len(out))
	return out, nil
}

// seenSizeHint bounds the size hint for per-lookup dedup maps. t
// arrives off the wire, so a hostile or corrupted value must not
// translate into an arbitrarily large up-front allocation; the map
// still grows past the hint if a lookup really returns that much.
func seenSizeHint(t int) int {
	const max = 1 << 10
	if t > max {
		return max
	}
	return t
}

func toStrings(entries []entry.Entry) []string {
	out := make([]string, len(entries))
	for i, v := range entries {
		out[i] = string(v)
	}
	return out
}
