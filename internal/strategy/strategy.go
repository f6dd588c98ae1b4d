// Package strategy implements the client side of the seven placement
// strategies — the paper's five partial-lookup schemes (Sec. 3 and
// Sec. 5) plus the KeyPartition baseline and MultiProbe-y: routing
// place / add / delete requests to an initial server (this file), and
// the per-scheme lookup sequencing (lookup.go).
//
// Every operation is written once, for many keys that share the
// driver's configuration; the one-key methods are one-item calls of the
// many-key ones. Each item is executed server-side exactly as its
// standalone message would be, so batching changes cost, never
// placement — and a batch of one travels as that standalone message.
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

// Driver executes one strategy configuration against a cluster. Driver
// is safe for concurrent use: its only mutable state is the RNG, which
// is guarded so a core.Service can share one driver across goroutines.
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

// PlaceItem is one key's place operation inside a batch.
type PlaceItem struct {
	Key     string
	Entries []entry.Entry
}

// AddItem is one key's add operation inside a batch.
type AddItem struct {
	Key   string
	Entry entry.Entry
}

// Place executes place(k, entries): a PlaceBatch of one.
func (d *Driver) Place(ctx context.Context, c transport.Caller, key string, entries []entry.Entry) error {
	return d.PlaceBatch(ctx, c, []PlaceItem{{Key: key, Entries: entries}})[0]
}

// Add executes add(k, v): an AddBatch of one.
func (d *Driver) Add(ctx context.Context, c transport.Caller, key string, v entry.Entry) error {
	return d.AddBatch(ctx, c, []AddItem{{Key: key, Entry: v}})[0]
}

// Delete executes delete(k, v). The wire has no delete envelope, so a
// delete is always the one-item case of the shared update path.
func (d *Driver) Delete(ctx context.Context, c transport.Caller, key string, v entry.Entry) error {
	errs := update(ctx, d, c, []string{key}, []wire.Delete{{Key: key, Config: d.cfg, Entry: v}}, nil, d.homes(v, c.NumServers()))
	// Deletes shift which servers hold entries; drop stale negatives so
	// probing re-learns the layout — after the ack, never before.
	d.sel.InvalidateNegatives(key)
	return errs[0]
}

// PlaceBatch executes many place operations: each item is sent to an
// initial server (see update), which distributes it per the scheme.
// It returns one error slot per item, nil on success.
func (d *Driver) PlaceBatch(ctx context.Context, c transport.Caller, items []PlaceItem) []error {
	if err := d.cfg.Validate(c.NumServers()); err != nil {
		errs := make([]error, len(items))
		for i := range errs {
			errs[i] = err
		}
		return errs
	}
	keys := make([]string, len(items))
	msgs := make([]wire.Place, len(items))
	for i, it := range items {
		keys[i] = it.Key
		msgs[i] = wire.Place{Key: it.Key, Config: d.cfg, Entries: it.Entries}
	}
	errs := update(ctx, d, c, keys, msgs, func(sub []wire.Place) wire.Message { return wire.PlaceBatch{Items: sub} }, nil)
	// A place rewrites the key's whole layout: any cached route is void.
	// Invalidate AFTER the server acks (and conservatively on error —
	// the update may have partially landed): invalidating before the
	// send opens a window where a concurrent lookup re-caches the old
	// layout and the stale route outlives the acked update.
	for _, key := range keys {
		d.sel.Invalidate(key)
	}
	return errs
}

// AddBatch executes many add operations; see PlaceBatch for routing and
// error semantics. Unlike a place it does not validate the driver's
// config against the cluster: the node's stored config wins for adds
// and deletes (node.handleAdd), so the client's copy is not the judge.
func (d *Driver) AddBatch(ctx context.Context, c transport.Caller, items []AddItem) []error {
	keys := make([]string, len(items))
	msgs := make([]wire.Add, len(items))
	for i, it := range items {
		keys[i] = it.Key
		msgs[i] = wire.Add{Key: it.Key, Config: d.cfg, Entry: it.Entry}
	}
	var prefer []int
	if len(items) == 1 {
		prefer = d.homes(items[0].Entry, c.NumServers())
	}
	errs := update(ctx, d, c, keys, msgs, func(sub []wire.Add) wire.Message { return wire.AddBatch{Items: sub} }, prefer)
	// The new entry may land on a server the cache marked empty; drop
	// negatives only after the ack (see PlaceBatch for the ordering).
	for _, key := range keys {
		d.sel.InvalidateNegatives(key)
	}
	return errs
}

// update routes the standalone update messages msgs (msgs[i] is for
// keys[i]) to their initial servers and delivers them, one error slot
// per message. The initial-server rule per scheme:
//
//   - KeyPartition: each key's responsible server, contacted directly
//     (no other server can help), so the items fan out per distinct home.
//   - Round-y: the key's sequencer, server 0 (Sec. 5.4), the only
//     server that assigns positions.
//   - Hash-y/MultiProbe-y add or delete of one item: a home of the
//     entry, which stores its own copy without a peer round trip; then a
//     random live server. A ZoneSpread config starts at a random one: its
//     homes depend on a topology the client does not have.
//   - Every other scheme, a multi-item batch and a Hash-y/MultiProbe-y
//     place (which reaches every server anyway): a random live server.
//
// The random order is the seeded permutation, drawn for every update
// whichever server leads, and health-weighted when a selector is
// attached; prefer (see Driver.homes) names the servers to lead it.
// Homes are a hint: the server recomputes them from its own view, so a
// wrong guess (a stale n mid-join or mid-drain) costs the forwarding hop
// the update would have paid anyway.
func update[T wire.Message](ctx context.Context, d *Driver, c transport.Caller, keys []string, msgs []T, wrap func([]T) wire.Message, prefer []int) []error {
	errs := make([]error, len(msgs))
	n := c.NumServers()
	switch d.cfg.Scheme {
	case wire.KeyPartition:
		for _, g := range groupByHome(keys, n) {
			deliver(ctx, c, []int{g.server}, msgs, g.idxs, wrap, errs)
		}
	case wire.RoundRobin:
		// Server 0 sequences the key; with no server there is no route.
		deliver(ctx, c, []int{0}[:min(n, 1)], msgs, allIndexes(len(msgs)), wrap, errs)
	default:
		deliver(ctx, c, d.sel.OrderGlobal(d.perm(n), prefer), msgs, allIndexes(len(msgs)), wrap, errs)
	}
	return errs
}

// homes returns entry v's homes under the client's view of n servers:
// where a Hash-y or MultiProbe-y add or delete of v should start
// (node.HomesFor is nil for every other scheme). It is nil for a
// ZoneSpread config, whose homes depend on a topology the client does
// not have.
func (d *Driver) homes(v string, n int) []int {
	if d.cfg.ZoneSpread {
		return nil
	}
	return node.HomesFor(v, d.cfg, n, nil)
}

// deliver sends the messages at idxs to the first server of route that
// is up and scatters the per-item outcomes into errs. It is the one
// place an update's envelope is chosen: one item travels as its
// standalone message, more are wrapped into their batch envelope.
func deliver[T wire.Message](ctx context.Context, c transport.Caller, route []int, msgs []T, idxs []int, wrap func([]T) wire.Message, errs []error) {
	var msg wire.Message
	if len(idxs) == 1 {
		msg = msgs[idxs[0]]
	} else {
		sub := make([]T, len(idxs))
		for j, i := range idxs {
			sub[j] = msgs[i]
		}
		msg = wrap(sub)
	}
	fail := func(err error) {
		for _, i := range idxs {
			errs[i] = err
		}
	}
	var lastErr error
	for _, server := range route {
		reply, err := c.Call(ctx, server, msg)
		if errors.Is(err, transport.ErrServerDown) {
			lastErr = err
			continue
		}
		if err != nil {
			fail(err)
			return
		}
		var outcomes []string
		switch ack := reply.(type) {
		case wire.Ack:
			outcomes = []string{ack.Err}
		case wire.BatchAck:
			if ack.Err != "" {
				fail(fmt.Errorf("strategy: server %d: %s", server, ack.Err))
				return
			}
			outcomes = ack.Errs
		default:
			fail(fmt.Errorf("strategy: unexpected reply %T from server %d", reply, server))
			return
		}
		if len(outcomes) != len(idxs) {
			fail(fmt.Errorf("strategy: server %d returned %d outcomes for %d items", server, len(outcomes), len(idxs)))
			return
		}
		for j, i := range idxs {
			if outcomes[j] != "" {
				errs[i] = fmt.Errorf("strategy: server %d: %s", server, outcomes[j])
			}
		}
		return
	}
	if lastErr == nil { // an empty route: no server to try
		fail(ErrNoLiveServers)
		return
	}
	fail(fmt.Errorf("%w: %w", ErrNoLiveServers, lastErr))
}

// homeGroup is the items of a KeyPartition batch that share a home
// server.
type homeGroup struct {
	server int
	idxs   []int
}

// groupByHome partitions key indexes by KeyPartition home server, in
// first-appearance order.
func groupByHome(keys []string, n int) []homeGroup {
	var groups []homeGroup
	at := make(map[int]int)
	for i, key := range keys {
		server := node.PartitionServer(key, n)
		gi, ok := at[server]
		if !ok {
			gi = len(groups)
			at[server] = gi
			groups = append(groups, homeGroup{server: server})
		}
		groups[gi].idxs = append(groups[gi].idxs, i)
	}
	return groups
}

func allIndexes(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}
