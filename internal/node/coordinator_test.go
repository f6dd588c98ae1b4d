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

// TestCoordinatorReplicationFailover exercises the footnote 1
// generalization: with Coordinators=3, Round-y updates survive the
// loss of server 0 because servers 1 and 2 mirror the head/tail
// counters.
func TestCoordinatorReplicationFailover(t *testing.T) {
	rng := stats.NewRNG(50)
	cl := cluster.New(6, rng.Split())
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2, Coordinators: 3}
	drv := strategy.MustNew(cfg, rng.Split())
	ctx := context.Background()

	if err := drv.Place(ctx, cl.Caller(), "k", entry.Synthetic(12)); err != nil {
		t.Fatalf("Place: %v", err)
	}
	// All coordinator replicas hold the counters after place.
	for c := 0; c < 3; c++ {
		head, tail := cl.Node(c).Counters("k")
		if head != 0 || tail != 12 {
			t.Fatalf("coordinator %d counters = (%d,%d), want (0,12)", c, head, tail)
		}
	}
	// Non-coordinators do not.
	if _, tail := cl.Node(4).Counters("k"); tail != 0 {
		t.Fatal("non-coordinator acquired counters")
	}

	// Kill the primary coordinator; updates continue through server 1.
	cl.Fail(0)
	if err := drv.Add(ctx, cl.Caller(), "k", "after-failover"); err != nil {
		t.Fatalf("Add after coordinator failure: %v", err)
	}
	if err := drv.Delete(ctx, cl.Caller(), "k", "v5"); err != nil {
		t.Fatalf("Delete after coordinator failure: %v", err)
	}
	head, tail := cl.Node(1).Counters("k")
	if head != 1 || tail != 13 {
		t.Fatalf("failover coordinator counters = (%d,%d), want (1,13)", head, tail)
	}
	// The mirrored replica 2 also advanced.
	head2, tail2 := cl.Node(2).Counters("k")
	if head2 != 1 || tail2 != 13 {
		t.Fatalf("standby counters = (%d,%d), want (1,13)", head2, tail2)
	}

	// The placement invariants hold across failover: the add landed at
	// position 12 -> servers 0,1 (server 0 is down and missed it; its
	// copy is lost, the other survives), and v5 was removed from live
	// servers.
	res, err := drv.PartialLookup(ctx, cl.Caller(), "k", 8)
	if err != nil {
		t.Fatalf("lookup after failover: %v", err)
	}
	if !res.Satisfied(8) {
		t.Fatalf("lookup got %d entries", len(res.Entries))
	}
	for s := 1; s < 6; s++ {
		if cl.Node(s).LocalSet("k").Contains("v5") {
			t.Fatalf("live server %d still holds deleted v5", s)
		}
	}
}

// TestCoordinatorBaseSchemeUnchanged pins the default: with
// Coordinators unset, only server 0 accepts Round-y updates.
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

// TestCounterSyncMonotonic pins that stale syncs never roll counters
// back.
func TestCounterSyncMonotonic(t *testing.T) {
	h := newHarness(t, 3, 52)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 1, Coordinators: 2}
	h.place(0, cfg, entry.Synthetic(5))
	// Fresh sync advances replica 1.
	h.mustAck(1, wire.CounterSync{Key: "k", Head: 2, Tail: 9})
	if head, tail := h.cl.Node(1).Counters("k"); head != 2 || tail != 9 {
		t.Fatalf("counters = (%d,%d), want (2,9)", head, tail)
	}
	// A stale replayed sync is ignored.
	h.mustAck(1, wire.CounterSync{Key: "k", Head: 1, Tail: 4})
	if head, tail := h.cl.Node(1).Counters("k"); head != 2 || tail != 9 {
		t.Fatalf("stale sync rolled back counters to (%d,%d)", head, tail)
	}
}

func TestCoordinatorsValidation(t *testing.T) {
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2, Coordinators: 9}
	if err := cfg.Validate(4); err == nil {
		t.Fatal("coordinators > n accepted")
	}
	cfg.Coordinators = 4
	if err := cfg.Validate(4); err != nil {
		t.Fatalf("coordinators == n rejected: %v", err)
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
