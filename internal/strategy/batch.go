// Multi-key batch operations: the client groups many operations that
// share a strategy configuration into single wire envelopes, amortizing
// one round trip (and one server dispatch) across keys. Each item is
// executed server-side exactly as its standalone message would be, so
// batching changes cost, never placement.
package strategy

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/wire"
)

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

// PlaceBatch executes many place operations, routed like single places
// (one random live server; the Round-y coordinator; the KeyPartition
// home server per key) but packed into PlaceBatch envelopes. It returns
// one error slot per item, nil on success.
func (d *Driver) PlaceBatch(ctx context.Context, c transport.Caller, items []PlaceItem) []error {
	errs := make([]error, len(items))
	if err := d.cfg.Validate(c.NumServers()); err != nil {
		fillErrs(errs, nil, err)
		return errs
	}
	wireItems := make([]wire.Place, len(items))
	for i, it := range items {
		wireItems[i] = wire.Place{Key: it.Key, Config: d.cfg, Entries: toStrings(it.Entries)}
	}
	d.sendBatches(ctx, c, errs, func(idxs []int) wire.Message {
		sub := make([]wire.Place, len(idxs))
		for j, i := range idxs {
			sub[j] = wireItems[i]
		}
		return wire.PlaceBatch{Items: sub}
	}, keyOfPlace(items))
	// Invalidate after the acks land, not while the envelopes are still
	// in flight (a concurrent lookup could re-cache the old layout).
	for _, it := range items {
		d.sel.Invalidate(it.Key)
	}
	return errs
}

// AddBatch executes many add operations in batch envelopes; see
// PlaceBatch for routing and error semantics.
func (d *Driver) AddBatch(ctx context.Context, c transport.Caller, items []AddItem) []error {
	errs := make([]error, len(items))
	if err := d.cfg.Validate(c.NumServers()); err != nil {
		fillErrs(errs, nil, err)
		return errs
	}
	wireItems := make([]wire.Add, len(items))
	for i, it := range items {
		wireItems[i] = wire.Add{Key: it.Key, Config: d.cfg, Entry: string(it.Entry)}
	}
	d.sendBatches(ctx, c, errs, func(idxs []int) wire.Message {
		sub := make([]wire.Add, len(idxs))
		for j, i := range idxs {
			sub[j] = wireItems[i]
		}
		return wire.AddBatch{Items: sub}
	}, keyOfAdd(items))
	// Negatives drop only after the acks (see PlaceBatch).
	for _, it := range items {
		d.sel.InvalidateNegatives(it.Key)
	}
	return errs
}

func keyOfPlace(items []PlaceItem) func(int) string {
	return func(i int) string { return items[i].Key }
}

func keyOfAdd(items []AddItem) func(int) string {
	return func(i int) string { return items[i].Key }
}

// sendBatches routes item indexes to their initial servers and sends
// one envelope per route, filling errs in place. build packs the given
// item indexes into an envelope; keyOf names an item's key (needed for
// KeyPartition routing).
func (d *Driver) sendBatches(ctx context.Context, c transport.Caller, errs []error,
	build func(idxs []int) wire.Message, keyOf func(int) string) {
	all := make([]int, len(errs))
	for i := range all {
		all[i] = i
	}
	if d.cfg.Scheme == wire.KeyPartition {
		// Traditional hashing: each key's home server is fixed, so the
		// batch fans out into one envelope per distinct home.
		byServer := make(map[int][]int)
		order := make([]int, 0)
		for _, i := range all {
			server := node.PartitionServer(keyOf(i), c.NumServers())
			if _, ok := byServer[server]; !ok {
				order = append(order, server)
			}
			byServer[server] = append(byServer[server], i)
		}
		for _, server := range order {
			idxs := byServer[server]
			d.deliverBatch(ctx, c, []int{server}, build(idxs), idxs, errs)
		}
		return
	}
	var route []int
	if d.cfg.Scheme == wire.RoundRobin {
		// Round-y updates must reach a coordinator: try them lowest
		// first (footnote 1 failover).
		coords := coordinatorCount(d.cfg, c.NumServers())
		route = make([]int, coords)
		for i := range route {
			route[i] = i
		}
	} else {
		route = d.orderGlobal(c.NumServers())
	}
	d.deliverBatch(ctx, c, route, build(all), all, errs)
}

// deliverBatch tries the candidate servers in order until one accepts
// the envelope, then scatters the per-item outcomes from its BatchAck
// into errs at the given item indexes.
func (d *Driver) deliverBatch(ctx context.Context, c transport.Caller, route []int, msg wire.Message, idxs []int, errs []error) {
	var lastErr error
	for _, server := range route {
		reply, err := c.Call(ctx, server, msg)
		if errors.Is(err, transport.ErrServerDown) {
			lastErr = err
			continue
		}
		if err != nil {
			fillErrs(errs, idxs, err)
			return
		}
		ack, ok := reply.(wire.BatchAck)
		if !ok {
			fillErrs(errs, idxs, fmt.Errorf("strategy: unexpected batch reply %T from server %d", reply, server))
			return
		}
		if ack.Err != "" {
			fillErrs(errs, idxs, fmt.Errorf("strategy: server %d: %s", server, ack.Err))
			return
		}
		if len(ack.Errs) != len(idxs) {
			fillErrs(errs, idxs, fmt.Errorf("strategy: server %d returned %d outcomes for %d items", server, len(ack.Errs), len(idxs)))
			return
		}
		for j, i := range idxs {
			if ack.Errs[j] != "" {
				errs[i] = fmt.Errorf("strategy: server %d: %s", server, ack.Errs[j])
			}
		}
		return
	}
	if lastErr == nil {
		lastErr = errors.New("strategy: no servers to route batch to")
	}
	fillErrs(errs, idxs, fmt.Errorf("%w: %v", ErrNoLiveServers, lastErr))
}

// fillErrs sets errs[i] = err for every index (all of errs when idxs is
// nil), keeping any earlier per-item error.
func fillErrs(errs []error, idxs []int, err error) {
	if idxs == nil {
		for i := range errs {
			if errs[i] == nil {
				errs[i] = err
			}
		}
		return
	}
	for _, i := range idxs {
		if errs[i] == nil {
			errs[i] = err
		}
	}
}

// coordinatorCount clamps the configured Round-y coordinator count to
// [1, n], the servers single and batched updates try in order.
func coordinatorCount(cfg wire.Config, n int) int {
	coords := cfg.Coordinators
	if coords < 1 {
		coords = 1
	}
	if coords > n {
		coords = n
	}
	return coords
}

// PartialLookupBatch executes partial_lookup(k, t) for many keys that
// share this driver's strategy, probing with LookupBatch envelopes so
// one round trip serves every still-unsatisfied key. Results and errors
// are per key, parallel to keys.
//
// Probe sequencing follows the scheme: the replicated schemes ask one
// live server for everything; KeyPartition fans out one envelope per
// home server; the partial schemes (RandomServer-x, Hash-y, Round-y)
// walk live servers in random order, shrinking the envelope as keys
// reach t entries (MultiProbe-y probes like Hash-y: random order).
// Round-y gives up its per-key deterministic s+y walk
// here — a batch shares one probe sequence across keys, which is the
// point of batching — and uses the random walk the paper prescribes as
// its failure fallback.
func (d *Driver) PartialLookupBatch(ctx context.Context, c transport.Caller, keys []string, t int) ([]Result, []error) {
	results := make([]Result, len(keys))
	errs := make([]error, len(keys))
	if t <= 0 {
		fillErrs(errs, nil, fmt.Errorf("strategy: partial lookup requires t > 0, got %d", t))
		return results, errs
	}
	if len(keys) == 0 {
		return results, errs
	}
	switch d.cfg.Scheme {
	case wire.KeyPartition:
		byServer := make(map[int][]int)
		order := make([]int, 0)
		for i, key := range keys {
			server := node.PartitionServer(key, c.NumServers())
			if _, ok := byServer[server]; !ok {
				order = append(order, server)
			}
			byServer[server] = append(byServer[server], i)
		}
		for _, server := range order {
			idxs := byServer[server]
			replies, err := d.batchProbe(ctx, c, server, keys, idxs, t)
			if errors.Is(err, transport.ErrServerDown) {
				fillErrs(errs, idxs, fmt.Errorf("%w: partition server %d", ErrNoLiveServers, server))
				continue
			}
			if err != nil {
				fillErrs(errs, idxs, err)
				continue
			}
			for j, i := range idxs {
				results[i].Contacted = 1
				seen := make(map[entry.Entry]struct{}, len(replies[j].Entries))
				results[i].Entries = entry.Dedup(nil, seen, toEntries(replies[j].Entries))
			}
		}
		return results, errs
	case wire.FullReplication, wire.Fixed:
		// Every server is equivalent: one live server answers the whole
		// batch, and there is never a reason to probe a second one.
		all := make([]int, len(keys))
		for i := range all {
			all[i] = i
		}
		for _, server := range d.orderGlobal(c.NumServers()) {
			if err := ctx.Err(); err != nil {
				fillErrs(errs, nil, err)
				return results, errs
			}
			replies, err := d.batchProbe(ctx, c, server, keys, all, t)
			if errors.Is(err, transport.ErrServerDown) {
				continue
			}
			if err != nil {
				fillErrs(errs, nil, err)
				return results, errs
			}
			for j, i := range all {
				results[i].Contacted = 1
				seen := make(map[entry.Entry]struct{}, len(replies[j].Entries))
				results[i].Entries = entry.Dedup(nil, seen, toEntries(replies[j].Entries))
			}
			return results, errs
		}
		fillErrs(errs, nil, ErrNoLiveServers)
		return results, errs
	default: // RandomServer, Hash, MultiProbe, RoundRobin: shared random walk.
		pending := make([]int, len(keys))
		for i := range pending {
			pending[i] = i
		}
		seen := make([]map[entry.Entry]struct{}, len(keys))
		for i := range seen {
			seen[i] = make(map[entry.Entry]struct{}, seenSizeHint(t))
		}
		reached := false
		for _, server := range d.orderPending(keys, c.NumServers()) {
			if len(pending) == 0 {
				break
			}
			if err := ctx.Err(); err != nil {
				fillErrs(errs, nil, err)
				return results, errs
			}
			replies, err := d.batchProbe(ctx, c, server, keys, pending, t)
			if errors.Is(err, transport.ErrServerDown) {
				continue
			}
			if err != nil {
				fillErrs(errs, pending, err)
				return results, errs
			}
			reached = true
			next := pending[:0]
			for j, i := range pending {
				results[i].Contacted++
				results[i].Entries = entry.Dedup(results[i].Entries, seen[i], toEntries(replies[j].Entries))
				if len(results[i].Entries) < t {
					next = append(next, i)
				}
			}
			pending = next
		}
		if !reached {
			fillErrs(errs, nil, ErrNoLiveServers)
		}
		return results, errs
	}
}

// orderPending is the selector-aware probe order for a batched lookup:
// the seeded permutation, reordered by scoreboard health with positive
// routing-cache votes pooled across the batch's keys. Without a
// selector it is exactly perm, preserving seeded behavior.
func (d *Driver) orderPending(keys []string, n int) []int {
	p := d.perm(n)
	if d.sel == nil {
		return p
	}
	return d.sel.OrderMulti(keys, p)
}

// batchProbe asks one server for up to t entries of each indexed key in
// a single LookupBatch envelope, returning one reply per index.
func (d *Driver) batchProbe(ctx context.Context, c transport.Caller, server int, keys []string, idxs []int, t int) ([]wire.LookupReply, error) {
	items := make([]wire.Lookup, len(idxs))
	for j, i := range idxs {
		items[j] = wire.Lookup{Key: keys[i], T: t}
	}
	reply, err := c.Call(ctx, server, wire.LookupBatch{Items: items})
	if err != nil {
		return nil, err
	}
	lbr, ok := reply.(wire.LookupBatchReply)
	if !ok {
		return nil, fmt.Errorf("strategy: unexpected batch lookup reply %T from server %d", reply, server)
	}
	if lbr.Err != "" {
		return nil, fmt.Errorf("strategy: server %d: %s", server, lbr.Err)
	}
	if len(lbr.Replies) != len(items) {
		return nil, fmt.Errorf("strategy: server %d returned %d replies for %d probes", server, len(lbr.Replies), len(items))
	}
	for _, r := range lbr.Replies {
		if r.Err != "" {
			return nil, fmt.Errorf("strategy: server %d: %s", server, r.Err)
		}
	}
	if d.sel != nil {
		for j, i := range idxs {
			d.sel.RecordAnswer(keys[i], server, len(lbr.Replies[j].Entries))
		}
	}
	return lbr.Replies, nil
}

func toEntries(ss []string) []entry.Entry {
	out := make([]entry.Entry, len(ss))
	for i, s := range ss {
		out[i] = entry.Entry(s)
	}
	return out
}
