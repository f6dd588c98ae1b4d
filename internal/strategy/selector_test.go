package strategy_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/wire"
)

// countingCaller tallies calls per server so tests can observe probe
// behavior a driver does not expose directly.
type countingCaller struct {
	inner transport.Caller
	calls []int
}

func (c *countingCaller) NumServers() int { return c.inner.NumServers() }

func (c *countingCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	c.calls[server]++
	return c.inner.Call(ctx, server, msg)
}

// A driver with a cold selector must issue byte-identical first probes
// to a selector-free driver built from the same seed: the selector
// reorders an already-drawn permutation and returns it untouched until
// it has signal, so seeded experiment output cannot change.
func TestSelectorColdFirstLookupIdentical(t *testing.T) {
	for _, cfg := range []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 20},
		{Scheme: wire.RandomServer, X: 12},
		{Scheme: wire.RoundRobin, Y: 3},
		{Scheme: wire.Hash, Y: 2, Seed: 42},
	} {
		t.Run(fmt.Sprint(cfg.Scheme), func(t *testing.T) {
			const n, h, seed = 8, 40, 17
			ctx := context.Background()
			run := func(sel *selector.Selector) (strategy.Result, []int) {
				rng := stats.NewRNG(seed)
				cl := cluster.New(n, rng.Split())
				drv := strategy.MustNew(cfg, rng.Split())
				if sel != nil {
					drv.SetSelector(sel)
				}
				cc := &countingCaller{inner: cl.Caller(), calls: make([]int, n)}
				if err := drv.Place(ctx, cc, "k", entry.Synthetic(h)); err != nil {
					t.Fatalf("Place: %v", err)
				}
				res, err := drv.PartialLookup(ctx, cc, "k", 15)
				if err != nil {
					t.Fatalf("PartialLookup: %v", err)
				}
				return res, cc.calls
			}
			plainRes, plainCalls := run(nil)
			selRes, selCalls := run(selector.New(n, selector.Options{}))
			if !reflect.DeepEqual(plainRes, selRes) {
				t.Fatalf("results diverge:\nplain: %+v\nsel:   %+v", plainRes, selRes)
			}
			if !reflect.DeepEqual(plainCalls, selCalls) {
				t.Fatalf("per-server calls diverge:\nplain: %v\nsel:   %v", plainCalls, selCalls)
			}
		})
	}
}

// Once the scoreboard opens a failing server, subsequent lookups stop
// probing it entirely (no half-open trial is due inside the test's
// instant of virtual time) and still satisfy their target from the
// healthy servers.
func TestSelectorStopsProbingOpenServer(t *testing.T) {
	const n, h, bad = 4, 20, 2
	ctx := context.Background()
	rng := stats.NewRNG(5)
	cl := cluster.New(n, rng.Split())
	sel := selector.New(n, selector.Options{})
	drv := strategy.MustNew(wire.Config{Scheme: wire.Hash, Y: 3, Seed: 7}, rng.Split())
	drv.SetSelector(sel)
	cc := &countingCaller{inner: cl.Caller(), calls: make([]int, n)}
	caller := selector.Observe(cc, sel)

	if err := drv.Place(ctx, caller, "k", entry.Synthetic(h)); err != nil {
		t.Fatalf("Place: %v", err)
	}
	cl.Fail(bad)
	// Hash-3 puts every entry on 3 of the 4 servers, so the 3 healthy
	// ones jointly hold all h entries and t=h stays satisfiable — but
	// gathering all of them forces each lookup to keep probing until the
	// failed server is visited, feeding the scoreboard a failure per
	// lookup until the streak opens it.
	for i := 0; i < 30 && !sel.Health()[bad].Open; i++ {
		if _, err := drv.PartialLookup(ctx, caller, "k", h); err != nil {
			t.Fatalf("lookup during failures: %v", err)
		}
	}
	if !sel.Health()[bad].Open {
		t.Fatalf("server %d never opened: %+v", bad, sel.Health()[bad])
	}

	// Post-open lookups use a target the healthy servers can satisfy:
	// the walk stops once t is met, and the open server sorts last, so
	// it is never reached. (An unsatisfiable target would still visit
	// it, by design — demotion reorders, it does not black-hole.)
	before := cc.calls[bad]
	for i := 0; i < 20; i++ {
		res, err := drv.PartialLookup(ctx, caller, "k", 12)
		if err != nil {
			t.Fatalf("lookup after open: %v", err)
		}
		if !res.Satisfied(12) {
			t.Fatalf("unsatisfied after open: %d entries", len(res.Entries))
		}
	}
	if got := cc.calls[bad]; got != before {
		t.Fatalf("open server still probed: %d calls before, %d after", before, got)
	}
}

// Cached routes steer lookups to the servers that answered fattest, so
// a warm second pass over a working set contacts fewer servers in
// total than the cold first pass did.
func TestSelectorCacheReducesContacted(t *testing.T) {
	const n, h, keys = 8, 40, 20
	ctx := context.Background()
	rng := stats.NewRNG(11)
	cl := cluster.New(n, rng.Split())
	sel := selector.New(n, selector.Options{})
	drv := strategy.MustNew(wire.Config{Scheme: wire.Hash, Y: 2, Seed: 99}, rng.Split())
	drv.SetSelector(sel)
	c := cl.Caller()

	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("key-%d", i)
		if err := drv.Place(ctx, c, key, entry.Synthetic(h)); err != nil {
			t.Fatalf("Place %s: %v", key, err)
		}
	}
	pass := func() int {
		total := 0
		for i := 0; i < keys; i++ {
			res, err := drv.PartialLookup(ctx, c, fmt.Sprintf("key-%d", i), 12)
			if err != nil {
				t.Fatalf("lookup: %v", err)
			}
			if !res.Satisfied(12) {
				t.Fatalf("unsatisfied lookup")
			}
			total += res.Contacted
		}
		return total
	}
	cold := pass()
	warm := pass()
	if warm >= cold {
		t.Fatalf("warm pass contacted %d servers, cold %d; want warm < cold", warm, cold)
	}
}

// The route cache holds the whole key set of bench's read_direct_uniform
// workload, so a warm selector steers every key's lookup, not just the
// keys it saw last. The shape is the bench's: n = 4, 6 000 keys, even
// keys Round-2 and odd keys Hash-2, 16 entries each, t = 12, every
// driver sharing one selector. No selector.Observe: only the route
// cache steers, and the mean is a pure function of the seeds. A 4 096-key LRU
// averages 2.077 here, a cache that keeps every key 2.032.
func TestSelectorRouteCacheHoldsTheBenchKeySet(t *testing.T) {
	const n, keys, h, target, lookups, bound = 4, 6000, 16, 12, 12000, 2.04
	ctx := context.Background()
	rng := stats.NewRNG(1)
	cl := cluster.New(n, rng.Split())
	c := cl.Caller()
	sel := selector.New(n, selector.Options{})
	drivers := [2]*strategy.Driver{
		strategy.MustNew(wire.Config{Scheme: wire.RoundRobin, Y: 2}, rng.Split()),
		strategy.MustNew(wire.Config{Scheme: wire.Hash, Y: 2}, rng.Split()),
	}
	var items [2][]strategy.PlaceItem
	for k := 0; k < keys; k++ {
		key := fmt.Sprintf("k%05d", k)
		entries := make([]entry.Entry, h)
		for j := range entries {
			entries[j] = fmt.Sprintf("%s/%02d", key, j)
		}
		items[k%2] = append(items[k%2], strategy.PlaceItem{Key: key, Entries: entries})
	}
	for i, drv := range drivers {
		drv.SetSelector(sel)
		for _, err := range drv.PlaceBatch(ctx, c, items[i]) {
			if err != nil {
				t.Fatalf("PlaceBatch: %v", err)
			}
		}
	}
	lookup := func(k int) int {
		res, err := drivers[k%2].PartialLookup(ctx, c, fmt.Sprintf("k%05d", k), target)
		if err != nil || !res.Satisfied(target) {
			t.Fatalf("lookup of key %d: %d entries, %v", k, len(res.Entries), err)
		}
		return res.Contacted
	}
	for k := 0; k < keys; k++ {
		lookup(k)
	}
	ops, contacted := stats.NewRNG(2), 0
	for i := 0; i < lookups; i++ {
		contacted += lookup(ops.IntN(keys))
	}
	mean := float64(contacted) / lookups
	t.Logf("mean servers contacted per warm lookup: %.4f", mean)
	if mean > bound {
		t.Fatalf("mean servers contacted per warm lookup = %.4f, want <= %.2f", mean, bound)
	}
}

// The batched pending-set loop pools cached routes across keys via
// OrderMulti; a warm batch lookup must still return correct, satisfied
// answers and not exceed the cold batch's probe traffic.
func TestSelectorBatchLookupWarm(t *testing.T) {
	const n, h = 8, 40
	ctx := context.Background()
	rng := stats.NewRNG(13)
	cl := cluster.New(n, rng.Split())
	sel := selector.New(n, selector.Options{})
	drv := strategy.MustNew(wire.Config{Scheme: wire.Hash, Y: 2, Seed: 3}, rng.Split())
	drv.SetSelector(sel)
	cc := &countingCaller{inner: cl.Caller(), calls: make([]int, n)}

	keys := make([]string, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("bk-%d", i)
		if err := drv.Place(ctx, cc, keys[i], entry.Synthetic(h)); err != nil {
			t.Fatalf("Place: %v", err)
		}
	}
	sum := func(v []int) int {
		s := 0
		for _, x := range v {
			s += x
		}
		return s
	}
	check := func(results []strategy.Result, errs []error) {
		t.Helper()
		for i := range results {
			if errs[i] != nil {
				t.Fatalf("batch lookup %s: %v", keys[i], errs[i])
			}
			if !results[i].Satisfied(10) {
				t.Fatalf("batch lookup %s unsatisfied", keys[i])
			}
		}
	}
	placed := sum(cc.calls)
	res, errs := drv.PartialLookupBatch(ctx, cc, keys, 10)
	check(res, errs)
	coldCalls := sum(cc.calls) - placed
	res, errs = drv.PartialLookupBatch(ctx, cc, keys, 10)
	check(res, errs)
	warmCalls := sum(cc.calls) - placed - coldCalls
	if warmCalls > coldCalls {
		t.Fatalf("warm batch made %d calls, cold made %d", warmCalls, coldCalls)
	}
}
