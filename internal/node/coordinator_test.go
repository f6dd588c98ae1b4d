package node_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/plstest"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestCoordinatorReplicationFailover: Round-y updates resume once a
// blank replacement takes the slot of server 0, the key's only
// sequencer, and repair refills it: the replacement rebuilds the
// counters from the positions the members hold before it assigns one.
func TestCoordinatorReplicationFailover(t *testing.T) {
	rng := stats.NewRNG(50)
	cl := cluster.New(6, rng.Split())
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	drv := strategy.MustNew(cfg, rng.Split())
	ctx := context.Background()

	placed := entry.Synthetic(12)
	if err := drv.Place(ctx, cl.Caller(), "k", placed); err != nil {
		t.Fatalf("Place: %v", err)
	}
	// Only the sequencer holds counters.
	if head, tail := cl.Node(0).Counters("k"); head != 0 || tail != 12 {
		t.Fatalf("sequencer counters = (%d,%d), want (0,12)", head, tail)
	}
	if _, tail := cl.Node(1).Counters("k"); tail != 0 {
		t.Fatal("server 1 acquired counters")
	}

	cl.Fail(0)
	cl.Replace(0, rng.Split())
	sweepAll(cl)
	if err := drv.Add(ctx, cl.Caller(), "k", "after-replace"); err != nil {
		t.Fatalf("Add after replace: %v", err)
	}
	if err := drv.Delete(ctx, cl.Caller(), "k", "v5"); err != nil {
		t.Fatalf("Delete after replace: %v", err)
	}
	if head, tail := cl.Node(0).Counters("k"); head != 1 || tail != 13 {
		t.Fatalf("replacement counters = (%d,%d), want (1,13)", head, tail)
	}
	live := liveFrom(placed)
	live.Add("after-replace")
	live.Remove("v5")
	v := plstest.Observe(cl, "k", cfg)
	plstest.Assert(t, "after replace", v.Check(live))
	plstest.Assert(t, "after replace coverage", v.CheckCoverage(live))
	res, err := drv.PartialLookup(ctx, cl.Caller(), "k", 8)
	if err != nil || !res.Satisfied(8) {
		t.Fatalf("lookup after replace: %d entries, %v", len(res.Entries), err)
	}
}

// TestRoundSequencerReplacedBlank: a blank replacement of server 0
// holds no counters, and sweeps do not restore them, since no peer
// holds any. Its first add and deletes rebuild them from the positions
// the members hold, so the key keeps its invariants.
func TestRoundSequencerReplacedBlank(t *testing.T) {
	h := newHarness(t, 4, 61)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	placed := entry.Synthetic(8)
	h.place(0, cfg, placed)
	live := liveFrom(placed)

	h.cl.Fail(0)
	h.cl.Replace(0, stats.NewRNG(610))
	for range 3 {
		sweepAll(h.cl)
	}
	h.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: "x"})
	live.Add("x")
	for _, v := range placed[:2] {
		h.mustAck(0, wire.Delete{Key: "k", Config: cfg, Entry: string(v)})
		live.Remove(v)
	}
	plstest.Assert(t, "after updates", plstest.Observe(h.cl, "k", cfg).Check(live))
	if head, tail := h.cl.Node(0).Counters("k"); head != 2 || tail != 9 {
		t.Errorf("counters = (%d,%d), want (2,9)", head, tail)
	}
	sweepAll(h.cl)
	plstest.Assert(t, "after a sweep", plstest.Observe(h.cl, "k", cfg).CheckCoverage(live))
}

// TestRoundRebuildNeedsEveryMember: a sequencer rebuilding its counters
// while a member is down fails the update and assigns nothing, because
// the silent member may hold the highest position. Once the member is
// back, the update goes through.
func TestRoundRebuildNeedsEveryMember(t *testing.T) {
	h := newHarness(t, 4, 62)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	h.place(0, cfg, entry.Synthetic(8))
	h.cl.Fail(0)
	h.cl.Replace(0, stats.NewRNG(620))
	h.cl.Fail(2)

	add := wire.Add{Key: "k", Config: cfg, Entry: "x"}
	if ack, ok := h.call(0, add).(wire.Ack); !ok || ack.Err == "" {
		t.Fatalf("add with a member down = %+v, want an error", ack)
	}
	if head, tail := h.cl.Node(0).Counters("k"); head != 0 || tail != 0 {
		t.Fatalf("counters after the failed rebuild = (%d,%d), want (0,0)", head, tail)
	}
	for s := range h.cl.N() {
		if h.cl.Node(s).LocalSet("k").Contains("x") {
			t.Fatalf("server %d stores the refused add", s)
		}
	}

	h.cl.Recover(2)
	h.mustAck(0, add)
	if head, tail := h.cl.Node(0).Counters("k"); head != 0 || tail != 9 {
		t.Fatalf("counters = (%d,%d), want (0,9)", head, tail)
	}
}

// TestCoordinatorBaseSchemeUnchanged pins the paper's base scheme:
// only server 0 accepts Round-y updates.
func TestCoordinatorBaseSchemeUnchanged(t *testing.T) {
	rng := stats.NewRNG(51)
	cl := cluster.New(4, rng.Split())
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	drv := strategy.MustNew(cfg, rng.Split())
	ctx := context.Background()
	if err := drv.Place(ctx, cl.Caller(), "k", entry.Synthetic(8)); err != nil {
		t.Fatal(err)
	}
	cl.Fail(0)
	err := drv.Add(ctx, cl.Caller(), "k", "x")
	if !errors.Is(err, transport.ErrServerDown) && !errors.Is(err, strategy.ErrNoLiveServers) {
		t.Fatalf("base scheme add with coordinator down = %v, want down error", err)
	}
}

// TestRoundConcurrentDeletesOfOneKey: deletes of one Round-y key that
// reach its coordinator together run one at a time there, so each
// one's Fig. 11 migration is set up at its head server before any
// holder asks for it. Three writers each add a fresh entry and delete
// the one they added before, through server 0; every reply succeeds
// and the key keeps its placement invariants.
func TestRoundConcurrentDeletesOfOneKey(t *testing.T) {
	const n, writers, ops = 4, 3, 2000
	cl := cluster.New(n, stats.NewRNG(60))
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	ctx := context.Background()
	placed := entry.Synthetic(8)
	call := func(msg wire.Message) error {
		reply, err := cl.Caller().Call(ctx, 0, msg)
		if err != nil {
			return err
		}
		if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
			return fmt.Errorf("%T: %+v", msg, reply)
		}
		return nil
	}
	if err := call(wire.Place{Key: "k", Config: cfg, Entries: placed}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var failed atomic.Int64
	last := make([]string, writers)
	for g := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ops {
				v := fmt.Sprint("w", g, "-", i)
				if err := call(wire.Add{Key: "k", Config: cfg, Entry: v}); err != nil {
					failed.Add(1)
					t.Log(err)
				}
				if i > 0 {
					if err := call(wire.Delete{Key: "k", Config: cfg, Entry: last[g]}); err != nil {
						failed.Add(1)
						t.Log(err)
					}
				}
				last[g] = v
			}
		}()
	}
	wg.Wait()
	if f := failed.Load(); f > 0 {
		t.Fatalf("%d of %d updates failed", f, writers*(2*ops-1))
	}
	live := entry.NewSet(0)
	for _, v := range append(placed, last...) {
		live.Add(v)
	}
	plstest.Assert(t, "after concurrent deletes", plstest.Observe(cl, "k", cfg).Check(live))
}
