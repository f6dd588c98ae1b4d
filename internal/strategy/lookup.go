package strategy

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/selector"
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
//     A one-key Hash-y lookup (no zone spread) probes next the cached
//     server expected to add the most entries, and hands the homes of
//     what it received to the routing cache (hashWalk).
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
	n, k := c.NumServers(), len(keys)
	ints := make([]int, k+n) // pending, then homed: one allocation
	l := &lookup{
		d: d, ctx: ctx, c: c, keys: keys, t: t,
		pending: ints[:k:k],
		homed:   ints[k:],
	}
	if k == 1 {
		l.results, l.errs = l.oneResult[:], l.oneErr[:]
	} else {
		l.results, l.errs = make([]Result, k), make([]error, k)
	}
	for i := range l.pending {
		l.pending[i] = i
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
				if next := (s + step*d.cfg.Y) % n; l.tried(next) || !l.visit(next) {
					break
				}
			}
			if len(l.pending) > 0 {
				l.walk(order(), false)
			}
		}
	case wire.Hash:
		if len(keys) == 1 && !d.cfg.ZoneSpread { // zone-spread homes need a topology the client does not have
			l.hashWalk(d.sel.OrderRoutes(keys[0], d.perm(n)))
		} else {
			l.walk(order(), false)
		}
	default: // RandomServer, MultiProbe
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
	seen    []map[entry.Entry]struct{} // per-key dedup set; nil while every answer is small (entry.Dedup)
	pending []int                      // indexes into keys
	reached bool                       // some server answered

	// homed holds, per server, -1 once it is probed (whatever the
	// outcome), else the number of received entries homed on it. Only a
	// one-key Hash-y lookup counts homes, and only the entries before
	// counted (countHomes).
	homed   []int
	counted int

	// A one-key lookup's probe, built once, the replies to it, and its
	// results and errs.
	one       wire.Message
	oneReply  [1]wire.LookupReply
	oneResult [1]Result
	oneErr    [1]error
}

// tried reports whether server has been probed.
func (l *lookup) tried(server int) bool { return l.homed[server] < 0 }

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
		if !l.tried(server) && l.visit(server) && first {
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
	l.homed[server] = -1
	if err := l.ctx.Err(); err != nil {
		l.fail(err)
		return false
	}
	replies, err := l.probe(server)
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
		var seen map[entry.Entry]struct{}
		if l.seen != nil {
			seen = l.seen[i]
		}
		if res.Entries, seen = entry.Dedup(res.Entries, seen, replies[j].Entries); seen != nil {
			if l.seen == nil {
				l.seen = make([]map[entry.Entry]struct{}, len(l.keys))
			}
			l.seen[i] = seen
		}
		if len(res.Entries) < l.t {
			still = append(still, i)
		}
	}
	l.pending = still
	return true
}

// hashWalk is the walk of a one-key Hash-y lookup. Each probe goes to
// the untried server of the order's cached tier expected to add the
// most entries — its recorded answer less the received entries homed on
// it, which that answer would repeat — and, while none is expected to
// add any, to the next untried server of the order; the first probe is
// the order's first server either way. A lookup that ends with the
// cache short of some server's answer hands the received entries' homes
// to the selector as derived routes (Selector.RecordDerived), so that
// the key's next lookup knows every server it can.
func (l *lookup) hashWalk(order []int, routes selector.Routes) {
	next := 0
	for len(l.pending) > 0 {
		server := l.bestCached(&routes)
		if server < 0 {
			for next < len(order) && l.tried(order[next]) {
				next++
			}
			if next == len(order) {
				break
			}
			server = order[next]
		}
		l.visit(server)
	}
	if !routes.Complete() {
		l.countHomes()
		l.d.sel.RecordDerived(l.keys[0], l.homed)
	}
}

// bestCached returns the untried server of routes' cached tier expected
// to add the most entries, the first of the tier among equals, or -1
// when none is expected to add any.
func (l *lookup) bestCached(routes *selector.Routes) int {
	best, most := -1, 0
	for i := 0; ; i++ {
		server, entries, ok := routes.Cached(i)
		if !ok {
			return best
		}
		if server >= len(l.homed) || l.tried(server) {
			continue
		}
		l.countHomes()
		if gain := entries - l.homed[server]; gain > most {
			best, most = server, gain
		}
	}
}

// countHomes adds the homes of the received entries that are not
// counted yet to every unprobed server's homed count. The homes are
// node.HashAssign's under the client's n, the rule Driver.homes routes
// updates by.
func (l *lookup) countHomes() {
	entries := l.results[0].Entries
	var buf [4]int
	for _, v := range entries[l.counted:] {
		for _, server := range node.AppendHashHomes(buf[:0], v, l.d.cfg.Y, len(l.homed), l.d.cfg.Seed) {
			if l.homed[server] >= 0 {
				l.homed[server]++
			}
		}
	}
	l.counted = len(entries)
}

// probe asks one server for up to t entries of each pending key and
// returns one reply per pending key. It is the one place a lookup's
// envelope is chosen: one key travels as a standalone Lookup, more as a
// LookupBatch. A one-key lookup builds its Lookup once and sends it to
// every server it probes.
func (l *lookup) probe(server int) ([]wire.LookupReply, error) {
	keys, idxs, t := l.keys, l.pending, l.t
	var msg wire.Message
	switch {
	case len(keys) == 1:
		if l.one == nil {
			l.one = wire.Lookup{Key: keys[0], T: t}
		}
		msg = l.one
	case len(idxs) == 1:
		msg = wire.Lookup{Key: keys[idxs[0]], T: t}
	default:
		items := make([]wire.Lookup, len(idxs))
		for j, i := range idxs {
			items[j] = wire.Lookup{Key: keys[i], T: t}
		}
		msg = wire.LookupBatch{Items: items}
	}
	reply, err := l.c.Call(l.ctx, server, msg)
	if err != nil {
		return nil, err
	}
	var replies []wire.LookupReply
	switch r := reply.(type) {
	case wire.LookupReply:
		l.oneReply[0] = r
		replies = l.oneReply[:]
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
		l.d.sel.RecordAnswer(keys[i], server, len(replies[j].Entries))
	}
	return replies, nil
}
