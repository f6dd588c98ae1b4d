package node_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/plstest"
	"repro/internal/stats"
	"repro/internal/wire"
)

// sweepAll runs one repair sweep on every node, in id order (the order
// the soak tests rely on for determinism), and folds the stats.
func sweepAll(c *cluster.Cluster) node.SweepStats {
	var total node.SweepStats
	for i := 0; i < c.N(); i++ {
		r := node.NewRepairer(c.Node(i), node.RepairOptions{Health: c.Health()})
		st := r.SweepOnce(context.Background())
		total.Keys += st.Keys
		total.MovedKeys += st.MovedKeys
		total.Queries += st.Queries
		total.Pushes += st.Pushes
		total.Moved += st.Moved
		total.UnderReplicated += st.UnderReplicated
	}
	return total
}

func liveFrom(entries []entry.Entry) *entry.Set {
	s := entry.NewSet(len(entries))
	for _, v := range entries {
		s.Add(v)
	}
	return s
}

// The tentpole: kill a server permanently, replace it with a blank
// one, sweep — every scheme's invariant checker must pass again,
// including full coverage on the replacement.
func TestRepairRestoresInvariantsAfterReplace(t *testing.T) {
	const n = 6
	entries := entry.Synthetic(30)
	live := liveFrom(entries)
	for _, tc := range []struct {
		cfg    wire.Config
		victim int
	}{
		{wire.Config{Scheme: wire.FullReplication}, 3},
		{wire.Config{Scheme: wire.Fixed, X: 10}, 3},
		{wire.Config{Scheme: wire.RandomServer, X: 10}, 3},
		{wire.Config{Scheme: wire.RoundRobin, Y: 3}, 3},
		{wire.Config{Scheme: wire.Hash, Y: 2, Seed: 390}, 3}, // seed 390: all 30 entries get 2 distinct homes at n=6
	} {
		t.Run(tc.cfg.Scheme.String(), func(t *testing.T) {
			h := newHarness(t, n, 11)
			initial := 1
			if tc.cfg.Scheme == wire.RoundRobin {
				initial = 0
			}
			h.place(initial, tc.cfg, entries)

			h.cl.Fail(tc.victim)
			h.cl.Replace(tc.victim, stats.NewRNG(1000+uint64(tc.victim)))
			// The blank replacement violates coverage until repair runs.
			pre := plstest.Observe(h.cl, "k", tc.cfg)
			if errs := pre.CheckCoverage(live); len(errs) == 0 {
				t.Fatal("blank replacement unexpectedly passes coverage; test proves nothing")
			}

			st := sweepAll(h.cl)
			if st.Moved == 0 {
				t.Fatal("sweep moved no entries")
			}
			v := plstest.Observe(h.cl, "k", tc.cfg)
			plstest.Assert(t, "post-sweep structural", v.Check(live))
			plstest.Assert(t, "post-sweep coverage", v.CheckCoverage(live))

			// Convergence: a forced re-sweep finds nothing left to move.
			again := sweepAll(h.cl)
			if again.Moved != 0 || again.UnderReplicated != 0 || again.Pushes != 0 {
				t.Fatalf("second sweep not converged: %+v", again)
			}
		})
	}
}

// With zero failures ever, the epoch gate must short-circuit sweeps
// before any wire traffic: repair enabled is free on a healthy cluster.
func TestRepairZeroFailuresIsNoOpOnWire(t *testing.T) {
	h := newHarness(t, 5, 12)
	h.place(1, wire.Config{Scheme: wire.Fixed, X: 8}, entry.Synthetic(20))
	before := h.cl.Messages()
	for i := 0; i < h.cl.N(); i++ {
		r := node.NewRepairer(h.cl.Node(i), node.RepairOptions{Health: h.cl.Health()})
		if st := r.SweepOnce(context.Background()); !st.Skipped {
			t.Fatalf("server %d swept with failure epoch 0: %+v", i, st)
		}
	}
	if after := h.cl.Messages(); after != before {
		t.Fatalf("zero-failure sweeps sent %d messages", after-before)
	}
}

// Once a sweep converges at an epoch, further sweeps at the same epoch
// are skipped entirely — no queries, no pushes.
func TestRepairEpochGateSkipsConvergedSweeps(t *testing.T) {
	h := newHarness(t, 5, 13)
	h.place(1, wire.Config{Scheme: wire.FullReplication}, entry.Synthetic(15))
	h.cl.Fail(2)
	h.cl.Replace(2, stats.NewRNG(500))
	r := node.NewRepairer(h.cl.Node(0), node.RepairOptions{Health: h.cl.Health()})
	if st := r.SweepOnce(context.Background()); st.Skipped || st.Moved == 0 {
		t.Fatalf("first sweep: %+v", st)
	}
	before := h.cl.Messages()
	if st := r.SweepOnce(context.Background()); !st.Skipped {
		t.Fatalf("converged sweep not skipped: %+v", st)
	}
	if after := h.cl.Messages(); after != before {
		t.Fatalf("skipped sweep sent %d messages", after-before)
	}
	// A new failure reopens the gate.
	h.cl.Fail(3)
	h.cl.Recover(3)
	if st := r.SweepOnce(context.Background()); st.Skipped {
		t.Fatal("sweep after new failure was skipped")
	}
}

// A sweep whose query or push got no answer must not close its epoch
// gate: the failure epoch moves only on Fail, Recover or Replace, so a
// copy lost to a partition would otherwise never be restored.
func TestRepairRetriesAfterLostTransfer(t *testing.T) {
	const n = 4
	ctx := context.Background()
	entries := entry.Synthetic(12)
	h := newHarness(t, n, 14)
	h.place(1, wire.Config{Scheme: wire.FullReplication}, entries)
	h.cl.Fail(3)
	h.cl.Replace(3, stats.NewRNG(700))
	for i := 0; i < 3; i++ {
		h.cl.Chaos().Partition(i, 3)
	}
	repairers := make([]*node.Repairer, n)
	for i := range repairers {
		repairers[i] = node.NewRepairer(h.cl.Node(i), node.RepairOptions{Health: h.cl.Health()})
		repairers[i].SweepOnce(ctx)
	}
	if got := h.cl.Node(3).LocalLen("k"); got != 0 {
		t.Fatalf("partitioned replacement holds %d entries; test proves nothing", got)
	}

	h.cl.Chaos().HealAll()
	for i, r := range repairers[:3] {
		if st := r.SweepOnce(ctx); st.Skipped {
			t.Errorf("server %d: sweep after a lost transfer was skipped", i)
		}
	}
	if got := h.cl.Node(3).LocalLen("k"); got != len(entries) {
		t.Fatalf("replacement holds %d of %d entries after the partition healed", got, len(entries))
	}
}

// Repair must never consume RNG draws: after identical seeded
// workloads and identical churn, a survivor's next lookup sample must
// be byte-identical whether or not repair sweeps ran. (The repaired
// replacement differs by design; the survivors must not.)
func TestRepairConsumesNoRNG(t *testing.T) {
	build := func() *cluster.Cluster {
		c := cluster.New(5, stats.NewRNG(40))
		reply := c.Node(1).Handle(context.Background(), wire.Place{
			Key:    "k",
			Config: wire.Config{Scheme: wire.RandomServer, X: 10},
			Entries: func() []string {
				es := make([]string, 40)
				for i, v := range entry.Synthetic(40) {
					es[i] = string(v)
				}
				return es
			}(),
		})
		if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
			t.Fatalf("place failed: %+v", reply)
		}
		c.Fail(2)
		c.Replace(2, stats.NewRNG(900))
		return c
	}
	plain, repaired := build(), build()
	if st := sweepAll(repaired); st.Moved == 0 {
		t.Fatal("repair arm moved nothing; test proves nothing")
	}
	for _, server := range []int{0, 1, 3, 4} {
		a := plain.Node(server).Handle(context.Background(), wire.Lookup{Key: "k", T: 5})
		b := repaired.Node(server).Handle(context.Background(), wire.Lookup{Key: "k", T: 5})
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("survivor %d lookup diverged after repair: %+v vs %+v", server, a, b)
		}
	}
}

// Receivers enforce their scheme's placement rule on pushes: a corrupt
// or misdirected RepairPush must not violate the invariant repair
// exists to restore.
func TestRepairPushAcceptanceRules(t *testing.T) {
	ctx := context.Background()

	t.Run("hash-wrong-home", func(t *testing.T) {
		h := newHarness(t, 4, 14)
		cfg := wire.Config{Scheme: wire.Hash, Y: 1, Seed: 3}
		h.place(1, cfg, entry.Synthetic(5))
		// Find a server that is NOT v1's home and push v1 at it.
		home := node.HashAssign("v1", 1, 4, 3)[0]
		wrong := (home + 1) % 4
		reply := h.cl.Node(wrong).Handle(ctx, wire.RepairPush{Key: "k", Config: cfg, Entries: []string{"v1"}})
		pr, ok := reply.(wire.RepairPushReply)
		if !ok || pr.Err != "" || pr.Accepted != 0 {
			t.Fatalf("wrong-home push reply: %+v", reply)
		}
		if h.cl.Node(wrong).LocalSet("k").Contains("v1") {
			t.Fatal("non-home server accepted a hash entry")
		}
	})

	t.Run("round-outside-window", func(t *testing.T) {
		h := newHarness(t, 4, 15)
		cfg := wire.Config{Scheme: wire.RoundRobin, Y: 1}
		h.place(0, cfg, entry.Synthetic(8))
		// Position 0 with y=1 lives only on server 0; server 2 must refuse.
		reply := h.cl.Node(2).Handle(ctx, wire.RepairPush{
			Key: "k", Config: cfg, Entries: []string{"vX"}, Positions: []uint64{0}, HasPos: true,
		})
		if pr := reply.(wire.RepairPushReply); pr.Accepted != 0 {
			t.Fatalf("out-of-window push accepted: %+v", pr)
		}
	})

	t.Run("length-mismatch-rejected", func(t *testing.T) {
		h := newHarness(t, 3, 16)
		cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
		h.place(0, cfg, entry.Synthetic(4))
		reply := h.cl.Node(1).Handle(ctx, wire.RepairPush{
			Key: "k", Config: cfg, Entries: []string{"a", "b"}, Positions: []uint64{1}, HasPos: true,
		})
		if pr := reply.(wire.RepairPushReply); pr.Err == "" {
			t.Fatalf("mismatched push not rejected: %+v", pr)
		}
	})

	t.Run("fixed-caps-at-x", func(t *testing.T) {
		h := newHarness(t, 3, 17)
		cfg := wire.Config{Scheme: wire.Fixed, X: 3}
		h.place(1, cfg, entry.Synthetic(3))
		reply := h.cl.Node(2).Handle(ctx, wire.RepairPush{
			Key: "k", Config: cfg, Entries: []string{"w1", "w2"},
		})
		if pr := reply.(wire.RepairPushReply); pr.Accepted != 0 {
			t.Fatalf("full Fixed server accepted overflow: %+v", pr)
		}
		if got := h.cl.Node(2).LocalSet("k").Len(); got != 3 {
			t.Fatalf("server 2 len = %d, want 3", got)
		}
	})

	// A push carrying a transition is refused when its epoch is stale,
	// when it is addressed to the leaver, when the receiver has no rank
	// in it, or when it claims more than one joiner; one without a
	// transition is repair, whatever the receiver's epoch.
	t.Run("rebalance-refusals", func(t *testing.T) {
		h := newHarness(t, 4, 19)
		cfg := wire.Config{Scheme: wire.FullReplication}
		h.place(0, cfg, entry.Synthetic(3))
		if _, err := h.cl.Join(ctx, stats.NewRNG(1)); err != nil {
			t.Fatalf("Join: %v", err)
		}
		nd := h.cl.Node(3) // at epoch 1, rank 3 of 5
		for _, c := range []struct {
			name, want string
			m          wire.RepairPush
		}{
			{"stale", "stale rebalance push", wire.RepairPush{Epoch: 0, NewN: 5, Leaving: -1}},
			{"to-the-leaver", "rebalance push addressed to the leaver", wire.RepairPush{Epoch: 2, NewN: 4, Leaving: 3}},
			{"outside-membership", "rebalance push outside membership", wire.RepairPush{Epoch: 2, NewN: 3, Leaving: -1}},
			{"many-joiners", "rebalance push outside membership", wire.RepairPush{Epoch: 2, NewN: 1 << 40, Leaving: -1}},
		} {
			c.m.Key, c.m.Config, c.m.Entries = "k", cfg, []string{"w-" + c.name}
			pr, ok := nd.Handle(ctx, c.m).(wire.RepairPushReply)
			if !ok || !strings.Contains(pr.Err, c.want) {
				t.Errorf("%s: reply %+v, want %q", c.name, pr, c.want)
			}
			if nd.LocalSet("k").Contains("w-" + c.name) {
				t.Errorf("%s: refused push stored its entry", c.name)
			}
		}
		reply := nd.Handle(ctx, wire.RepairPush{Key: "k", Config: cfg, Entries: []string{"w-repair"}})
		if pr := reply.(wire.RepairPushReply); pr.Err != "" || pr.Accepted != 1 {
			t.Fatalf("repair push after a join: %+v", pr)
		}
	})
}

// The partition baseline has no donors: repair plans nothing, and a
// replaced home stays empty — the decay the paper argues against.
func TestRepairCannotResurrectPartitionHome(t *testing.T) {
	h := newHarness(t, 4, 18)
	cfg := wire.Config{Scheme: wire.KeyPartition}
	h.place(1, cfg, entry.Synthetic(10))
	home := node.PartitionServer("k", 4)
	h.cl.Fail(home)
	h.cl.Replace(home, stats.NewRNG(600))
	st := sweepAll(h.cl)
	if st.Moved != 0 {
		t.Fatalf("partition repair moved %d entries", st.Moved)
	}
	if got := h.cl.Node(home).LocalSet("k").Len(); got != 0 {
		t.Fatalf("replaced home has %d entries, want 0 (unreplicated loss)", got)
	}
}
