package strategy_test

import (
	"context"
	"fmt"
	"math/bits"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

// homedEntries returns h entries of key whose Hash-y homes under cfg in
// a cluster of n servers pass keep.
func homedEntries(key string, h, n int, cfg wire.Config, keep func(homes []int) bool) []entry.Entry {
	var out []entry.Entry
	for i := 0; len(out) < h; i++ {
		v := fmt.Sprintf("%s/%d", key, i)
		if keep(node.HashAssign(v, cfg.Y, n, cfg.Seed)) {
			out = append(out, v)
		}
	}
	return out
}

// A lookup that never probes the one server holding t entries still
// learns where they are: every entry it received is homed on that
// server, so the server's derived route is at least the t entries the
// lookup collected, the largest route of the key, and the key's next
// lookup contacts that server alone.
func TestSelectorDerivedRouteFindsTheServerHoldingT(t *testing.T) {
	const n, h, target, keys = 4, 16, 12, 8
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 5}
	ctx := context.Background()
	rng := stats.NewRNG(3)
	cl := cluster.New(n, rng.Split())
	drv := strategy.MustNew(cfg, rng.Split())
	drv.SetSelector(selector.New(n, selector.Options{}))
	log := &callLog{inner: cl.Caller()}

	derived := 0
	for k := 0; k < keys; k++ {
		// Every entry lives on server 0 and on one other server, so
		// servers 1..3 together hold all h entries too.
		key := fmt.Sprintf("full-%d", k)
		entries := homedEntries(key, h, n, cfg, func(homes []int) bool {
			return len(homes) == 2 && slices.Contains(homes, 0)
		})
		if err := drv.Place(ctx, log, key, entries); err != nil {
			t.Fatalf("Place %s: %v", key, err)
		}
		log.take()
		for lookup := 1; lookup <= 2; lookup++ {
			res, err := drv.PartialLookup(ctx, log, key, target)
			if err != nil || !res.Satisfied(target) {
				t.Fatalf("%s lookup %d: %d entries, %v", key, lookup, len(res.Entries), err)
			}
			probed := log.take()
			if lookup == 1 && !slices.Contains(probed, 0) {
				derived++
			}
			if lookup == 2 && res.Contacted != 1 {
				t.Fatalf("%s: second lookup contacted %v, want server 0 alone", key, probed)
			}
		}
	}
	if derived == 0 {
		t.Fatalf("every first lookup probed server 0: no key exercised a derived route")
	}
}

// Derived routes do not move tiers. An open server with a derived route
// stays behind every healthy server, and a server cached as answering
// the key empty stays negative even when the lookup received entries
// homed on it.
func TestSelectorDerivedRouteKeepsTiers(t *testing.T) {
	const n, h, open, negative = 4, 16, 3, 2
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 9}
	ctx := context.Background()
	rng := stats.NewRNG(4)
	cl := cluster.New(n, rng.Split())
	now := time.Unix(0, 0) // a fixed clock: no half-open trial falls due
	sel := selector.New(n, selector.Options{Now: func() time.Time { return now }})
	drv := strategy.MustNew(cfg, rng.Split())
	drv.SetSelector(sel)
	log := &callLog{inner: cl.Caller()}

	// Every entry but one lives on one healthy server, 0 or 1, and on
	// the open server (12 entries) or the negative one (3): the open
	// server's derived route outgrows both healthy answers. The last
	// entry lives on the open server alone.
	var entries []entry.Entry
	for i, homes := range [][]int{{0, open}, {1, open}, {0, negative}, {1, negative}, {open}} {
		count := []int{6, 6, 2, 1, 1}[i]
		entries = append(entries, homedEntries(fmt.Sprint("k", homes), count, n, cfg, func(got []int) bool {
			slices.Sort(got)
			return slices.Equal(got, homes)
		})...)
	}
	if err := drv.Place(ctx, log, "k", entries); err != nil {
		t.Fatalf("Place: %v", err)
	}
	for i := 0; i < 3; i++ {
		sel.RecordFailure(open)
	}
	sel.RecordAnswer("k", negative, 0) // a stale verdict: the server holds every entry
	log.take()

	// Servers 0 and 1 are the healthy tier; a target they meet leaves
	// the negative and the open server unprobed.
	res, err := drv.PartialLookup(ctx, log, "k", 12)
	if err != nil || !res.Satisfied(12) {
		t.Fatalf("first lookup: %d entries, %v", len(res.Entries), err)
	}
	if probed := log.take(); slices.Contains(probed, open) || slices.Contains(probed, negative) {
		t.Fatalf("first lookup probed %v, want neither server %d nor %d", probed, negative, open)
	}
	if inCachedTier(sel, negative) {
		t.Fatalf("negative server %d joined the cached tier", negative)
	}
	// The open server did get a derived route: closed, it would join the
	// cached tier.
	sel.RecordSuccess(open, time.Millisecond)
	if !inCachedTier(sel, open) {
		t.Fatalf("open server %d has no derived route", open)
	}
	for i := 0; i < 3; i++ {
		sel.RecordFailure(open)
	}

	// Every entry, which only probing every server can collect: the
	// negative server comes after the healthy ones, the open one last.
	res, err = drv.PartialLookup(ctx, log, "k", h)
	if err != nil {
		t.Fatalf("second lookup: %v", err)
	}
	probed := log.take()
	if len(probed) != n || probed[n-2] != negative || probed[n-1] != open {
		t.Fatalf("second lookup probed %v, want the healthy servers, then %d, then %d", probed, negative, open)
	}
}

// A slow server is not lifted by a derived route. Among 8 servers,
// server 0 holds nearly every entry but answers slowly: a lookup whose
// target the healthy servers meet never probes it, and though most
// entries it received are homed on server 0, the next lookup still
// probes server 5 after every healthy server.
func TestSelectorDerivedRouteLeavesSlowServerLast(t *testing.T) {
	const n, slow = 8, 0
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 11}
	ctx := context.Background()
	rng := stats.NewRNG(5)
	cl := cluster.New(n, rng.Split())
	sel := selector.New(n, selector.Options{})
	for server := 0; server < n; server++ {
		sel.RecordSuccess(server, time.Millisecond)
	}
	sel.RecordSuccess(slow, 10*time.Millisecond)
	drv := strategy.MustNew(cfg, rng.Split())
	drv.SetSelector(sel)
	log := &callLog{inner: cl.Caller()}

	// 30 entries on the slow server and one other, one on the slow
	// server alone (only probing it collects every entry), 9 elsewhere.
	entries := homedEntries("k/slow", 30, n, cfg, func(homes []int) bool {
		return len(homes) == 2 && slices.Contains(homes, slow)
	})
	entries = append(entries, homedEntries("k/only", 1, n, cfg, func(homes []int) bool {
		return slices.Equal(homes, []int{slow})
	})...)
	entries = append(entries, homedEntries("k/rest", 9, n, cfg, func(homes []int) bool {
		return !slices.Contains(homes, slow)
	})...)
	if err := drv.Place(ctx, log, "k", entries); err != nil {
		t.Fatalf("Place: %v", err)
	}
	log.take()

	res, err := drv.PartialLookup(ctx, log, "k", 12)
	if err != nil || !res.Satisfied(12) {
		t.Fatalf("first lookup: %d entries, %v", len(res.Entries), err)
	}
	if probed := log.take(); slices.Contains(probed, slow) {
		t.Fatalf("first lookup probed %v, want no probe of slow server %d", probed, slow)
	}
	if inCachedTier(sel, slow) {
		t.Fatalf("slow server %d got a derived route", slow)
	}
	res, err = drv.PartialLookup(ctx, log, "k", len(entries))
	if err != nil || !res.Satisfied(len(entries)) {
		t.Fatalf("second lookup: %d entries, %v", len(res.Entries), err)
	}
	if probed := log.take(); len(probed) != n || probed[n-1] != slow {
		t.Fatalf("second lookup probed %v, want every healthy server, then %d", probed, slow)
	}
}

// inCachedTier reports whether server is in the cached tier of a lookup
// order for "k".
func inCachedTier(sel *selector.Selector, server int) bool {
	_, routes := sel.OrderRoutes("k", []int{0, 1, 2, 3})
	for i := 0; ; i++ {
		cached, _, ok := routes.Cached(i)
		if !ok || cached == server {
			return ok
		}
	}
}

// answerLog records the size of every lookup reply by server.
type answerLog struct {
	transport.Caller
	sizes map[int]int
}

func (c *answerLog) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	reply, err := c.Caller.Call(ctx, server, msg)
	if r, ok := reply.(wire.LookupReply); ok && err == nil {
		c.sizes[server] = len(r.Entries)
	}
	return reply, err
}

// A selector with a client zone learns no route a lookup did not
// measure: its routing cache ends up as if it had been fed the probe
// answers alone. The same lookup without a zone does derive routes, so
// the comparison has something to find.
func TestSelectorWithClientZoneDerivesNoRoute(t *testing.T) {
	const n, h, target = 8, 40, 12
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 42}
	tp, err := topo.Parse("2x2x2", n)
	if err != nil {
		t.Fatal(err)
	}
	for _, zone := range []string{"r0/d0/k0", ""} {
		t.Run(fmt.Sprintf("zone=%q", zone), func(t *testing.T) {
			ctx := context.Background()
			rng := stats.NewRNG(6)
			cl := cluster.New(n, rng.Split())
			sel := selector.New(n, selector.Options{})
			ref := selector.New(n, selector.Options{})
			if zone != "" {
				sel.SetTopology(tp, zone)
				ref.SetTopology(tp, zone)
			}
			drv := strategy.MustNew(cfg, rng.Split())
			drv.SetSelector(sel)
			if err := drv.Place(ctx, cl.Caller(), "k", entry.Synthetic(h)); err != nil {
				t.Fatalf("Place: %v", err)
			}
			answers := &answerLog{Caller: cl.Caller(), sizes: map[int]int{}}
			if _, err := drv.PartialLookup(ctx, answers, "k", target); err != nil {
				t.Fatalf("PartialLookup: %v", err)
			}
			for server, size := range answers.sizes {
				ref.RecordAnswer("k", server, size)
			}
			same := true
			for i := 0; i < 20; i++ {
				base := stats.NewRNG(uint64(i)).Perm(n)
				same = same && slices.Equal(sel.Order("k", base), ref.Order("k", base))
			}
			if want := zone != ""; same != want {
				t.Fatalf("orders match the measured answers alone: %v, want %v (probed %v)", same, want, answers.sizes)
			}
		})
	}
}

// minCover is the fewest servers whose local sets of key hold t
// distinct entries between them: the floor of any lookup's cost, by
// brute force over every subset, as the paper's Appendix A sizes
// lookups. A server holding t or more entries covers alone, since it
// answers t of them.
func minCover(cl *cluster.Cluster, n int, key string, t int) int {
	sets := make([][]entry.Entry, n)
	for s := range sets {
		sets[s] = cl.Node(s).LocalSet(key).Members()
	}
	best := n + 1
	for mask := 1; mask < 1<<n; mask++ {
		size := bits.OnesCount(uint(mask))
		if size >= best {
			continue
		}
		union := map[entry.Entry]bool{}
		for s := 0; s < n; s++ {
			if mask&(1<<s) != 0 {
				for _, v := range sets[s] {
					union[v] = true
				}
			}
		}
		if len(union) >= t {
			best = size
		}
	}
	return best
}

// With the routes of every server known, a Hash-2 lookup costs what the
// best cover of its key costs, give or take a greedy step that misses
// it: over 200 keys (16 entries, n = 4, t = 12, the shape of bench's
// Hash keys), the mean Contacted of each key's third to fifth lookup is
// within 0.03 of the mean minimum cover. Probing in order of recorded
// answer size alone sits about 0.1 above it.
func TestSelectorHashLookupsReachTheMinimumCover(t *testing.T) {
	const n, keys, h, target, slack = 4, 200, 16, 12, 0.03
	ctx := context.Background()
	rng := stats.NewRNG(21)
	cl := cluster.New(n, rng.Split())
	c := cl.Caller()
	drv := strategy.MustNew(wire.Config{Scheme: wire.Hash, Y: 2, Seed: 8}, rng.Split())
	drv.SetSelector(selector.New(n, selector.Options{}))
	items := make([]strategy.PlaceItem, keys)
	for k := range items {
		key := fmt.Sprintf("k%05d", k)
		entries := make([]entry.Entry, h)
		for j := range entries {
			entries[j] = fmt.Sprintf("%s/%02d", key, j)
		}
		items[k] = strategy.PlaceItem{Key: key, Entries: entries}
	}
	for _, err := range drv.PlaceBatch(ctx, c, items) {
		if err != nil {
			t.Fatalf("PlaceBatch: %v", err)
		}
	}
	floor := 0
	for _, it := range items {
		floor += minCover(cl, n, it.Key, target)
	}
	contacted := 0
	for pass := 1; pass <= 5; pass++ {
		for _, it := range items {
			res, err := drv.PartialLookup(ctx, c, it.Key, target)
			if err != nil || !res.Satisfied(target) {
				t.Fatalf("lookup %d of %s: %d entries, %v", pass, it.Key, len(res.Entries), err)
			}
			if pass >= 3 {
				contacted += res.Contacted
			}
		}
	}
	mean, cover := float64(contacted)/(3*keys), float64(floor)/keys
	t.Logf("mean Contacted of lookups 3-5: %.4f, mean minimum cover: %.4f", mean, cover)
	if mean > cover+slack {
		t.Fatalf("mean Contacted %.4f, more than %.2f above the minimum cover %.4f", mean, slack, cover)
	}
}
