package core_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/selector"
	"repro/internal/stats"
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
// order. The ceiling leaves slack for compiler wobble and still trips on
// anything that starts allocating per server or per entry.
const lookupAllocCeiling = 18

func TestPartialLookupAllocCeiling(t *testing.T) {
	const n = 4
	cl := cluster.New(n, stats.NewRNG(7))
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(3),
		core.WithDefaultConfig(core.Config{Scheme: core.Hash, Y: 2}),
		core.WithSelector(selector.New(n, selector.Options{})))
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	placeEntries(t, svc, "k", 16)
	ctx := context.Background()
	lookup := func() {
		res, err := svc.PartialLookup(ctx, "k", 10)
		if err != nil || !res.Satisfied(10) {
			t.Fatalf("PartialLookup = %d entries, %v", len(res.Entries), err)
		}
	}
	lookup() // warm the route cache and the scoreboard
	allocs := testing.AllocsPerRun(200, lookup)
	if allocs > lookupAllocCeiling {
		t.Errorf("PartialLookup: %.1f allocs/op, want <= %d", allocs, lookupAllocCeiling)
	}
}
