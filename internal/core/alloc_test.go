package core_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// lookupAllocCeiling gates the client half of the read path the way
// wire's TestDecodeAllocCeiling gates the codec: one PartialLookup on a
// Hash-2 key (16 entries, t = 10) with a warm selector over the in-proc
// cluster, whose transport and node are part of the count. The
// single-key entry points are one-item calls of the batch path, so this
// is the price of the one-item slices as a number: 19 allocations per
// lookup when the single-key drivers were their own code, 33 as a batch
// of one (the per-request result, error, pending and tried slices in
// strategy, the outcome and config-group slices in core, the pooled
// vote slices in selector), 29 since the merge of a small answer scans
// it instead of building a map (entry.Dedup), 24 since the merge grows
// the answer once per reply and reads the reply's strings in place, 16
// since the selector orders in reused buffers and allocates only the
// order, 12 since a one-key lookup builds its Lookup once, keeps a
// standalone reply, its result and its error in place, makes dedup sets
// only for large answers and holds its pending keys and per-server
// counts in one slice (each further probe costs 3: the node's reply and
// its copied entries, and the answer's growth). The ceiling leaves slack
// for compiler wobble and the race detector (one more per growth of the
// answer, and the node's sync.Pool misses), and still trips on anything
// that starts allocating per server or per entry. A second case holds a
// two-probe lookup to the same ceiling (15 today, 18 under -race) when
// it reads routes that its key's previous lookup derived from entry
// homes and picks its second probe among them by expected gain.
const lookupAllocCeiling = 18

// probeLog records the servers a service calls, into a slice whose
// capacity the test sizes so that recording allocates nothing. It runs
// on the cluster's virtual clock, so every call scores the same latency.
type probeLog struct {
	transport.Caller
	probed []int
}

func (c *probeLog) Clock() *transport.Clock { return transport.ClockOf(c.Caller) }

func (c *probeLog) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	c.probed = append(c.probed, server)
	return c.Caller.Call(ctx, server, msg)
}

func TestPartialLookupAllocCeiling(t *testing.T) {
	const n = 4
	cl := cluster.New(n, stats.NewRNG(7))
	sel := selector.New(n, selector.Options{})
	log := &probeLog{Caller: cl.Caller(), probed: make([]int, 0, 64)}
	svc, err := core.NewService(log,
		core.WithSeed(3),
		core.WithDefaultConfig(core.Config{Scheme: core.Hash, Y: 2}),
		core.WithSelector(sel))
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	placeEntries(t, svc, "k", 16)
	ctx := context.Background()
	lookupKey := func(key string, target int) int {
		res, err := svc.PartialLookup(ctx, key, target)
		if err != nil || !res.Satisfied(target) {
			t.Fatalf("PartialLookup(%s) = %d entries, %v", key, len(res.Entries), err)
		}
		return res.Contacted
	}
	lookup := func() {
		log.probed = log.probed[:0]
		lookupKey("k", 10)
	}
	lookup() // warm the route cache and the scoreboard
	allocs := testing.AllocsPerRun(200, lookup)
	t.Logf("PartialLookup: %.1f allocs/op", allocs)
	if allocs > lookupAllocCeiling {
		t.Errorf("PartialLookup: %.1f allocs/op, want <= %d", allocs, lookupAllocCeiling)
	}

	// Derived routes: each run forgets key "d", looks it up once so that
	// the servers that lookup did not probe get derived routes, and
	// measures the next lookup, whose cached tier holds them. No server
	// holds 12 of the 16 entries, so every lookup needs a second probe.
	placeEntries(t, svc, "d", 16)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun does
	const runs = 200
	var mallocs uint64
	var ms runtime.MemStats
	for i := 0; i < runs; i++ {
		sel.Invalidate("d")
		log.probed = log.probed[:0]
		lookupKey("d", 12)
		if i == 0 && !derivedInTier(sel, "d", log.probed) {
			t.Fatalf("the lookup after probing %v left no derived route in the cached tier", log.probed)
		}
		log.probed = log.probed[:0]
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		contacted := lookupKey("d", 12)
		runtime.ReadMemStats(&ms)
		mallocs += ms.Mallocs - before
		if i == 0 && contacted < 2 {
			t.Fatalf("the measured lookup contacted %d server, want a second probe", contacted)
		}
	}
	allocs = float64(mallocs / runs) // rounded down, as AllocsPerRun does
	t.Logf("PartialLookup over derived routes: %.1f allocs/op", allocs)
	if allocs > lookupAllocCeiling {
		t.Errorf("PartialLookup over derived routes: %.1f allocs/op, want <= %d", allocs, lookupAllocCeiling)
	}
}

// derivedInTier reports whether the cached tier of key's next lookup
// holds a server outside probed: one whose route was derived.
func derivedInTier(sel *selector.Selector, key string, probed []int) bool {
	_, routes := sel.OrderRoutes(key, []int{0, 1, 2, 3})
	for i := 0; ; i++ {
		server, _, ok := routes.Cached(i)
		if !ok {
			return false
		}
		if !slices.Contains(probed, server) {
			return true
		}
	}
}
