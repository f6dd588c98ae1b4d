package strategy_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

// sentCall is one message a driver put on the wire.
type sentCall struct {
	Server int
	Kind   wire.Kind
}

// recordingCaller logs every call's destination and wire kind.
type recordingCaller struct {
	inner transport.Caller
	sent  []sentCall
}

func (c *recordingCaller) NumServers() int { return c.inner.NumServers() }

func (c *recordingCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	c.sent = append(c.sent, sentCall{Server: server, Kind: msg.Kind()})
	return c.inner.Call(ctx, server, msg)
}

// lookupTrace is everything a lookup lets an observer see: the answer,
// the error, the messages sent, and where it left the driver's RNG (the
// next permutation the driver would draw).
type lookupTrace struct {
	Res      strategy.Result
	Err      string
	Sent     []sentCall
	NextPerm []int
}

// TestOneKeyIsBatchOfOne pins the contract the one request path rests
// on: for every scheme, cold and under failures, PartialLookup(k, t) and
// PartialLookupBatch([k], t) on equal seeds over equal clusters are
// indistinguishable — same entries in the same order, same Contacted,
// same wire kinds to the same servers, same RNG consumption.
func TestOneKeyIsBatchOfOne(t *testing.T) {
	const n, h = 8, 40
	ctx := context.Background()
	run := func(t *testing.T, cfg wire.Config, down []int, keys []string, target int, batch bool) []lookupTrace {
		rng := stats.NewRNG(17)
		cl := cluster.New(n, rng.Split())
		if cfg.ZoneSpread {
			tp, err := topo.Parse("2x2x2", n)
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.SetTopology(tp); err != nil {
				t.Fatal(err)
			}
		}
		drvRNG := rng.Split()
		drv := strategy.MustNew(cfg, drvRNG)
		rc := &recordingCaller{inner: cl.Caller()}
		for _, key := range keys {
			if err := drv.Place(ctx, rc, key, entry.Synthetic(h)); err != nil {
				t.Fatalf("Place: %v", err)
			}
		}
		for _, s := range down {
			cl.Fail(s)
		}
		rc.sent = nil
		var results []strategy.Result
		var errs []error
		if batch {
			results, errs = drv.PartialLookupBatch(ctx, rc, keys, target)
		} else {
			res, err := drv.PartialLookup(ctx, rc, keys[0], target)
			results, errs = []strategy.Result{res}, []error{err}
		}
		traces := make([]lookupTrace, len(results))
		for i := range results {
			traces[i] = lookupTrace{Res: results[i], Err: fmt.Sprint(errs[i]), Sent: rc.sent}
		}
		traces[0].NextPerm = drvRNG.Perm(n)
		return traces
	}

	configs := []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 20},
		{Scheme: wire.RandomServer, X: 12},
		{Scheme: wire.RoundRobin, Y: 3},
		{Scheme: wire.Hash, Y: 2, Seed: 42},
		{Scheme: wire.Hash, Y: 3, Seed: 42, ZoneSpread: true},
		{Scheme: wire.MultiProbe, Y: 2, Seed: 42},
		{Scheme: wire.MultiProbe, Y: 3, Seed: 42, ZoneSpread: true},
		{Scheme: wire.KeyPartition},
	}
	for _, cfg := range configs {
		for _, down := range [][]int{nil, {2}, {1, 5}} {
			t.Run(fmt.Sprintf("%v/spread=%v/down=%v", cfg, cfg.ZoneSpread, down), func(t *testing.T) {
				one := run(t, cfg, down, []string{"k"}, 15, false)
				many := run(t, cfg, down, []string{"k"}, 15, true)
				if !reflect.DeepEqual(one, many) {
					t.Fatalf("one key and a batch of one diverge:\nPartialLookup:      %+v\nPartialLookupBatch: %+v", one, many)
				}
				for _, s := range one[0].Sent {
					if s.Kind != wire.KindLookup {
						t.Fatalf("one key sent kind %d to server %d, want a standalone Lookup", s.Kind, s.Server)
					}
				}
			})
		}
	}

	// A Round-y batch follows the s, s+y, ... walk of Sec. 3.4 like a
	// single key does: entry position p sits on the same servers whatever
	// the key, so each key of the batch is answered by exactly the probes
	// the single-key walk from the same start makes. Asking for all h
	// entries makes the walk as long as it gets.
	for _, down := range [][]int{nil, {2}} {
		t.Run(fmt.Sprintf("Round-2 batch of 3/down=%v", down), func(t *testing.T) {
			cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
			keys := []string{"a", "b", "c"}
			one := run(t, cfg, down, keys, h, false)[0]
			many := run(t, cfg, down, keys, h, true)
			for i, tr := range many {
				if tr.Err != "<nil>" || !tr.Res.Satisfied(h) {
					t.Fatalf("batch key %s: %d entries, err %s", keys[i], len(tr.Res.Entries), tr.Err)
				}
				if tr.Res.Contacted != one.Res.Contacted {
					t.Fatalf("batch key %s contacted %d servers, the single-key walk %d",
						keys[i], tr.Res.Contacted, one.Res.Contacted)
				}
			}
			if len(many[0].Sent) != len(one.Sent) {
				t.Fatalf("batch sent %v, the single-key walk %v", many[0].Sent, one.Sent)
			}
			for i, s := range many[0].Sent {
				if s.Server != one.Sent[i].Server || s.Kind != wire.KindLookupBatch {
					t.Fatalf("batch sent %v, want LookupBatch along the single-key walk %v", many[0].Sent, one.Sent)
				}
			}
			if !reflect.DeepEqual(many[0].NextPerm, one.NextPerm) {
				t.Fatalf("batch left the RNG at %v, the single-key walk at %v", many[0].NextPerm, one.NextPerm)
			}
		})
	}
}

// cancelAfter cancels a context once the driver has made the given
// number of calls.
type cancelAfter struct {
	transport.Caller
	calls  int
	cancel context.CancelFunc
}

func (c *cancelAfter) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	reply, err := c.Caller.Call(ctx, server, msg)
	if c.calls--; c.calls == 0 {
		c.cancel()
	}
	return reply, err
}

// A deadline that expires mid-batch fails only the keys still short of
// t: a key the first probe already satisfied keeps its nil error, as a
// single-key lookup that reached t before the deadline would.
func TestBatchDeadlineFailsOnlyPendingKeys(t *testing.T) {
	const n = 8
	rng := stats.NewRNG(31)
	cl := cluster.New(n, rng.Split())
	drv := strategy.MustNew(wire.Config{Scheme: wire.Hash, Y: 2, Seed: 5}, rng.Split())
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// "full" holds ~20 entries per server, "thin" one or two: with t = 4
	// the first probe satisfies the one and cannot satisfy the other.
	if err := drv.Place(ctx, cl.Caller(), "full", entry.Synthetic(80)); err != nil {
		t.Fatal(err)
	}
	if err := drv.Place(ctx, cl.Caller(), "thin", entry.Synthetic(6)); err != nil {
		t.Fatal(err)
	}
	c := &cancelAfter{Caller: cl.Caller(), calls: 1, cancel: cancel}
	results, errs := drv.PartialLookupBatch(ctx, c, []string{"full", "thin"}, 4)
	if !results[0].Satisfied(4) || results[1].Satisfied(4) {
		t.Fatalf("fixture: first probe gave full=%d thin=%d entries, want >= 4 and < 4",
			len(results[0].Entries), len(results[1].Entries))
	}
	if errs[0] != nil {
		t.Fatalf("satisfied key carries %v", errs[0])
	}
	if errs[1] != context.Canceled {
		t.Fatalf("pending key carries %v, want context.Canceled", errs[1])
	}
}

// Add and AddBatch agree on who judges the config: the node's stored
// one wins for adds, so neither validates the client's copy against the
// cluster size. A Round-y key on a cluster drained below the client's y
// accepts a batched add exactly as it accepts a single one.
func TestAddBatchDoesNotValidateClientConfig(t *testing.T) {
	ctx := context.Background()
	rng := stats.NewRNG(9)
	cl := cluster.New(3, rng.Split())
	placer := strategy.MustNew(wire.Config{Scheme: wire.RoundRobin, Y: 2}, rng.Split())
	for _, key := range []string{"k1", "k2"} {
		if err := placer.Place(ctx, cl.Caller(), key, entry.Synthetic(6)); err != nil {
			t.Fatal(err)
		}
	}
	stale := strategy.MustNew(wire.Config{Scheme: wire.RoundRobin, Y: 5}, rng.Split()) // y > n
	if err := stale.Add(ctx, cl.Caller(), "k1", "single"); err != nil {
		t.Fatalf("Add: %v", err)
	}
	for i, err := range stale.AddBatch(ctx, cl.Caller(), []strategy.AddItem{
		{Key: "k1", Entry: "batched"}, {Key: "k2", Entry: "batched"},
	}) {
		if err != nil {
			t.Fatalf("AddBatch[%d]: %v", i, err)
		}
	}
	if err := stale.Place(ctx, cl.Caller(), "k3", entry.Synthetic(6)); err == nil {
		t.Fatal("Place with y > n accepted: a place still validates client-side")
	}
}
