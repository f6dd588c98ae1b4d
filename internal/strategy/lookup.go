package strategy

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/entry"
	"repro/internal/transport"
	"repro/internal/wire"
)

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

// PartialLookup executes partial_lookup(k, t): a PartialLookupBatch of
// one. Retrieving fewer than t entries is not an error (check
// Result.Satisfied); an error means no server could be reached at all
// or the request is unusable.
func (d *Driver) PartialLookup(ctx context.Context, c transport.Caller, key string, t int) (Result, error) {
	results, errs := d.PartialLookupBatch(ctx, c, []string{key}, t)
	return results[0], errs[0]
}

// PartialLookupBatch executes partial_lookup(k, t) for many keys that
// share this driver's strategy: every probe asks one server about every
// key still short of t, so one round trip serves all of them. Results
// and errors are per key, parallel to keys; only a key that is still
// short of t when its probing stops can carry an error.
//
// The probe sequence per scheme:
//
//   - KeyPartition contacts the single server each key hashes to — the
//     traditional hashing baseline of Fig. 1. There is no failover: if
//     that server is down, its keys are unreachable ("if S2 is down
//     ...", Sec. 1 — the weakness partial lookups remove).
//   - Full replication / Fixed-x ask the first live server of a random
//     order: every server is identical, so there is never a reason to
//     probe a second one.
//   - RandomServer-x, Hash-y and MultiProbe-y contact live servers in
//     random order, merging distinct entries, until no key is pending.
//   - Round-y starts at the first live server s of a random order and
//     then walks the deterministic sequence s+y, s+2y, ... which
//     maximizes new entries per probe (Sec. 3.4). If the walk hits a
//     failed server or would revisit one, it falls back to a second
//     random order over the untried servers, as the paper prescribes
//     ("if there are any server failures, choose random servers
//     instead"). Entry position p lives on servers p mod n ... p+y-1
//     mod n whatever the key, so s and s+y hold disjoint windows of
//     every key of the batch and one walk serves them all.
//
// Each random order is the seeded permutation, reordered by the
// selector (scoreboard health, the keys' pooled routing-cache votes)
// once it has signal. The second Round-y order is drawn only when the
// fallback is reached, so the RNG advances exactly as the probes do.
func (d *Driver) PartialLookupBatch(ctx context.Context, c transport.Caller, keys []string, t int) ([]Result, []error) {
	n := c.NumServers()
	l := &lookup{
		d: d, ctx: ctx, c: c, keys: keys, t: t,
		results: make([]Result, len(keys)),
		errs:    make([]error, len(keys)),
		seen:    make([]map[entry.Entry]struct{}, len(keys)),
		pending: allIndexes(len(keys)),
		tried:   make([]bool, n),
	}
	if t <= 0 {
		l.fail(fmt.Errorf("strategy: partial lookup requires t > 0, got %d", t))
	}
	if len(l.pending) == 0 {
		return l.results, l.errs
	}
	order := func() []int { return d.sel.OrderMulti(keys, d.perm(n)) }
	switch d.cfg.Scheme {
	case wire.KeyPartition:
		for _, g := range groupByHome(keys, n) {
			l.pending = g.idxs
			if !l.visit(g.server) {
				l.fail(fmt.Errorf("%w: partition server %d", ErrNoLiveServers, g.server))
			}
		}
	case wire.FullReplication, wire.Fixed:
		l.walk(order(), true)
	case wire.RoundRobin:
		if s := l.walk(order(), true); s >= 0 {
			for step := 1; step < n && len(l.pending) > 0; step++ {
				if next := (s + step*d.cfg.Y) % n; l.tried[next] || !l.visit(next) {
					break
				}
			}
			if len(l.pending) > 0 {
				l.walk(order(), false)
			}
		}
	default: // RandomServer, Hash, MultiProbe
		l.walk(order(), false)
	}
	if !l.reached {
		l.fail(ErrNoLiveServers)
	}
	return l.results, l.errs
}

// lookup is the state of one PartialLookupBatch: the pending keys —
// those still short of t — share every probe.
type lookup struct {
	d    *Driver
	ctx  context.Context
	c    transport.Caller
	keys []string
	t    int

	results []Result
	errs    []error
	seen    []map[entry.Entry]struct{} // per-key dedup set; nil while the answer is small (entry.Dedup)
	pending []int                      // indexes into keys
	tried   []bool                     // per server: probed, whatever the outcome
	reached bool                       // some server answered
}

// fail ends the lookup of every pending key with err; keys that already
// hold t entries are not touched.
func (l *lookup) fail(err error) {
	for _, i := range l.pending {
		l.errs[i] = err
	}
	l.pending = nil
}

// walk visits the untried servers of order while keys are pending. With
// first set it stops at the first live server and returns it; otherwise
// (and when no server is live) it returns -1.
func (l *lookup) walk(order []int, first bool) int {
	for _, server := range order {
		if len(l.pending) == 0 {
			break
		}
		if !l.tried[server] && l.visit(server) && first {
			return server
		}
	}
	return -1
}

// visit probes one server for every pending key, merges the answers and
// drops the keys that reached t from pending. It reports whether the
// server answered; a down server only counts as tried, any other
// failure — an expired context included — fails the pending keys.
func (l *lookup) visit(server int) bool {
	l.tried[server] = true
	if err := l.ctx.Err(); err != nil {
		l.fail(err)
		return false
	}
	replies, err := l.d.probe(l.ctx, l.c, server, l.keys, l.pending, l.t)
	if err != nil {
		if !errors.Is(err, transport.ErrServerDown) {
			l.fail(err)
		}
		return false
	}
	l.reached = true
	still := l.pending[:0]
	for j, i := range l.pending {
		res := &l.results[i]
		res.Contacted++
		res.Entries, l.seen[i] = entry.Dedup(res.Entries, l.seen[i], replies[j].Entries)
		if len(res.Entries) < l.t {
			still = append(still, i)
		}
	}
	l.pending = still
	return true
}

// probe asks one server for up to t entries of each key at idxs and
// returns one reply per index. It is the one place a lookup's envelope
// is chosen: one key travels as a standalone Lookup, more as a
// LookupBatch.
func (d *Driver) probe(ctx context.Context, c transport.Caller, server int, keys []string, idxs []int, t int) ([]wire.LookupReply, error) {
	var msg wire.Message
	if len(idxs) == 1 {
		msg = wire.Lookup{Key: keys[idxs[0]], T: t}
	} else {
		items := make([]wire.Lookup, len(idxs))
		for j, i := range idxs {
			items[j] = wire.Lookup{Key: keys[i], T: t}
		}
		msg = wire.LookupBatch{Items: items}
	}
	reply, err := c.Call(ctx, server, msg)
	if err != nil {
		return nil, err
	}
	var replies []wire.LookupReply
	switch r := reply.(type) {
	case wire.LookupReply:
		replies = []wire.LookupReply{r}
	case wire.LookupBatchReply:
		if r.Err != "" {
			return nil, fmt.Errorf("strategy: server %d: %s", server, r.Err)
		}
		replies = r.Replies
	default:
		return nil, fmt.Errorf("strategy: unexpected lookup reply %T from server %d", reply, server)
	}
	if len(replies) != len(idxs) {
		return nil, fmt.Errorf("strategy: server %d returned %d replies for %d probes", server, len(replies), len(idxs))
	}
	for _, r := range replies {
		if r.Err != "" {
			return nil, fmt.Errorf("strategy: server %d: %s", server, r.Err)
		}
	}
	// Feed the routing cache: this server answers each key with this
	// many entries (zero is a negative verdict).
	for j, i := range idxs {
		d.sel.RecordAnswer(keys[i], server, len(replies[j].Entries))
	}
	return replies, nil
}
