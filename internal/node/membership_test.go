package node_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/plstest"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// membershipConfigs are the schemes the membership tests cycle through
// — all of them, including the MultiProbe extension. Parameters are
// sized so every entry keeps at least two distinct homes at the sizes
// these tests run (5–6 servers), leaving a donor through any single
// transition.
func membershipConfigs() map[string]wire.Config {
	return map[string]wire.Config{
		"full":       {Scheme: wire.FullReplication},
		"fixed":      {Scheme: wire.Fixed, X: 12},
		"rs":         {Scheme: wire.RandomServer, X: 12},
		"round":      {Scheme: wire.RoundRobin, Y: 3},
		"hash":       {Scheme: wire.Hash, Y: 3, Seed: 2},
		"multiprobe": {Scheme: wire.MultiProbe, Y: 3, Seed: 2},
		"partition":  {Scheme: wire.KeyPartition},
	}
}

func entryStrings(set *entry.Set) []string {
	out := make([]string, 0, set.Len())
	for _, m := range set.Members() {
		out = append(out, string(m))
	}
	sort.Strings(out)
	return out
}

// memberState is one server's comparable per-key state, for the
// byte-identity claims.
type memberState struct {
	Entries    []string
	Positions  map[string]int
	HCount     int
	Head, Tail int
}

func clusterSnapshot(c *cluster.Cluster, key string) []memberState {
	out := make([]memberState, c.N())
	for i := 0; i < c.N(); i++ {
		nd := c.Node(i)
		pos := make(map[string]int)
		for m, p := range nd.Positions(key) {
			pos[string(m)] = p
		}
		head, tail := nd.Counters(key)
		out[i] = memberState{
			Entries:   entryStrings(nd.LocalSet(key)),
			Positions: pos,
			HCount:    nd.SystemCount(key),
			Head:      head,
			Tail:      tail,
		}
	}
	return out
}

// workload places an initial population and a few adds (so Round-y
// counters are live), returning the live set.
func (h *harness) workload(cfg wire.Config, placed int) *entry.Set {
	h.t.Helper()
	initial := entry.Synthetic(placed)
	live := liveFrom(initial)
	n := h.cl.N()
	h.place(initialServer(cfg, "k", n), cfg, initial)
	for i := 0; i < 4; i++ {
		v := entry.Entry(fmt.Sprintf("m%d", i))
		h.mustAck(initialServer(cfg, "k", n), wire.Add{Key: "k", Config: cfg, Entry: string(v)})
		live.Add(v)
	}
	return live
}

// sumMoved folds every member's last rebalance sweep.
func sumMoved(c *cluster.Cluster) int {
	total := 0
	for i := 0; i < c.N(); i++ {
		if st, ok := c.Node(i).LastRebalance(); ok {
			total += st.Moved
		}
	}
	return total
}

// A 6th server joins a loaded 5-server cluster: every member commits
// the update synchronously, the joiner receives its share of every
// scheme's placement, and the full invariant checker passes at the new
// size — with nothing left over for repair to move.
func TestJoinRebalancesAllSchemes(t *testing.T) {
	ctx := context.Background()
	for name, cfg := range membershipConfigs() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, 5, 51)
			live := h.workload(cfg, 30)

			if _, err := h.cl.Join(ctx, stats.NewRNG(900)); err != nil {
				t.Fatalf("Join: %v", err)
			}
			if h.cl.N() != 6 {
				t.Fatalf("N = %d after join, want 6", h.cl.N())
			}
			for i := 0; i < 6; i++ {
				if got := h.cl.Node(i).MemberEpoch(); got != 1 {
					t.Errorf("server %d member epoch %d, want 1", i, got)
				}
			}
			v := plstest.Observe(h.cl, "k", cfg)
			plstest.Assert(t, "post-join structural", v.Check(live))
			plstest.Assert(t, "post-join coverage", v.CheckCoverage(live))
			if cfg.Scheme != wire.KeyPartition && sumMoved(h.cl) == 0 {
				t.Error("join rebalance moved no entries")
			}
			// The rebalance must be complete: a full repair sweep at the
			// new size finds nothing left to move.
			if st := sweepAll(h.cl); st.Moved != 0 {
				t.Errorf("post-join sweep still moved %d entries: %+v", st.Moved, st)
			}
		})
	}
}

// A member drains out of a loaded 6-server cluster: its share lands on
// the surviving homes before the slot is compacted, invariants hold at
// the new size, and the leaver walks away empty — except RandomServer-x
// copies with no confirmable survivor, which must ride out in the
// leaver's escrow rather than be destroyed.
func TestDrainRebalancesAllSchemes(t *testing.T) {
	ctx := context.Background()
	const victim = 3
	for name, cfg := range membershipConfigs() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, 6, 61)
			live := h.workload(cfg, 30)
			pre := entryStrings(h.cl.Node(victim).LocalSet("k"))

			leaver, err := h.cl.Drain(ctx, victim)
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if h.cl.N() != 5 {
				t.Fatalf("N = %d after drain, want 5", h.cl.N())
			}
			v := plstest.Observe(h.cl, "k", cfg)
			plstest.Assert(t, "post-drain structural", v.Check(live))
			plstest.Assert(t, "post-drain coverage", v.CheckCoverage(live))

			if cfg.Scheme == wire.RandomServer {
				// No destruction: everything the leaver held survives on
				// some member or in the leaver's escrow.
				escrow := leaver.LocalSet("k")
				for _, s := range pre {
					held := escrow.Contains(entry.Entry(s))
					for i := 0; i < h.cl.N() && !held; i++ {
						held = h.cl.Node(i).LocalSet("k").Contains(entry.Entry(s))
					}
					if !held {
						t.Errorf("entry %q destroyed by drain: not on any survivor nor in escrow", s)
					}
				}
			} else if got := leaver.LocalSet("k").Len(); got != 0 {
				t.Errorf("leaver still holds %d entries, want a clean handoff", got)
			}
			if st := sweepAll(h.cl); st.Moved != 0 {
				t.Errorf("post-drain sweep still moved %d entries: %+v", st.Moved, st)
			}
		})
	}
}

// The reversibility pin: join then drain of the same server returns
// every member's per-key state — entry sets, Round-y positions,
// RandomServer counters, coordinator head/tail — byte-identically to
// where it started, for every scheme. This is what "rebalance never
// consumes RNG and never redraws placements" buys.
func TestJoinThenDrainRestoresStateExactly(t *testing.T) {
	ctx := context.Background()
	for name, cfg := range membershipConfigs() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, 5, 71)
			live := h.workload(cfg, 26)
			want := clusterSnapshot(h.cl, "k")

			joined, err := h.cl.Join(ctx, stats.NewRNG(901))
			if err != nil {
				t.Fatalf("Join: %v", err)
			}
			v := plstest.Observe(h.cl, "k", cfg)
			plstest.Assert(t, "mid-churn structural", v.Check(live))
			plstest.Assert(t, "mid-churn coverage", v.CheckCoverage(live))

			drained, err := h.cl.Drain(ctx, 5)
			if err != nil {
				t.Fatalf("Drain: %v", err)
			}
			if drained != joined {
				t.Fatal("drained a different node than the one that joined")
			}
			if got := clusterSnapshot(h.cl, "k"); !reflect.DeepEqual(got, want) {
				t.Errorf("join+drain did not restore state:\n got %+v\nwant %+v", got, want)
			}
			if got := h.cl.MemberEpoch(); got != 2 {
				t.Errorf("member epoch %d after join+drain, want 2", got)
			}
		})
	}
}

// The client-visible half of the reversibility pin, for the schemes
// whose surviving members a join+drain round trip never touches (Full,
// Fixed-x, RandomServer-x: only the joiner gains and loses entries):
// a seeded lookup stream against the churned cluster is byte-identical
// — same entries, same order, same probe counts — to the stream
// against an undisturbed cluster. The per-entry schemes (Round-y,
// Hash-y, MultiProbe-y, KeyPartition) physically move entries through
// the transition, and a moved copy is a fresh insertion — its sampling
// index legitimately differs — so for them the guarantee is the golden
// determinism of TestChurnedLookupStreamGolden, not invariance.
func TestSeededLookupsUnchangedByChurn(t *testing.T) {
	ctx := context.Background()
	type lookupTrace struct {
		Entries   []string
		Contacted int
	}
	for _, tc := range []struct {
		name string
		cfg  wire.Config
	}{
		{"full", wire.Config{Scheme: wire.FullReplication}},
		{"fixed", wire.Config{Scheme: wire.Fixed, X: 12}},
		{"rs", wire.Config{Scheme: wire.RandomServer, X: 12}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(churn bool) []lookupTrace {
				h := newHarness(t, 5, 33)
				h.workload(tc.cfg, 24)
				if churn {
					if _, err := h.cl.Join(ctx, stats.NewRNG(902)); err != nil {
						t.Fatalf("Join: %v", err)
					}
					if _, err := h.cl.Drain(ctx, 5); err != nil {
						t.Fatalf("Drain: %v", err)
					}
				}
				svc, err := core.NewService(h.cl.Caller(),
					core.WithKeyConfig("k", tc.cfg), core.WithSeed(7))
				if err != nil {
					t.Fatalf("NewService: %v", err)
				}
				var out []lookupTrace
				for i := 0; i < 12; i++ {
					res, err := svc.PartialLookup(ctx, "k", 1+i%5)
					if err != nil {
						t.Fatalf("lookup %d: %v", i, err)
					}
					got := make([]string, len(res.Entries))
					for j, e := range res.Entries {
						got[j] = string(e)
					}
					out = append(out, lookupTrace{Entries: got, Contacted: res.Contacted})
				}
				return out
			}
			plain := run(false)
			churned := run(true)
			if !reflect.DeepEqual(plain, churned) {
				t.Errorf("seeded lookups diverged after join+drain:\n got %+v\nwant %+v", churned, plain)
			}
		})
	}
}

// TestChurnedLookupStreamGolden pins the full seeded lookup stream of a
// schedule that includes a join and a drain — every scheme, one client
// service spanning all three cluster sizes — to a checked-in golden.
// Membership rebalancing consumes no RNG and redraws no placement, so
// not one sample may shift release over release. Regenerate with
//
//	MEMBERSHIP_GEN_GOLDEN=1 go test ./internal/node -run TestChurnedLookupStreamGolden
//
// and justify the diff in the commit.
func TestChurnedLookupStreamGolden(t *testing.T) {
	ctx := context.Background()
	cfgs := membershipConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		cfg := cfgs[name]
		h := newHarness(t, 5, 33)
		h.workload(cfg, 24)
		svc, err := core.NewService(h.cl.Caller(),
			core.WithKeyConfig("k", cfg), core.WithSeed(7))
		if err != nil {
			t.Fatalf("NewService: %v", err)
		}
		phase := func(label string) {
			for i := 0; i < 5; i++ {
				res, err := svc.PartialLookup(ctx, "k", 1+i)
				if err != nil {
					t.Fatalf("%s %s lookup %d: %v", name, label, i, err)
				}
				got := make([]string, len(res.Entries))
				for j, e := range res.Entries {
					got[j] = string(e)
				}
				fmt.Fprintf(&b, "%s %s %d contacted=%d entries=%s\n",
					name, label, i, res.Contacted, strings.Join(got, ","))
			}
		}
		phase("pre")
		if _, err := h.cl.Join(ctx, stats.NewRNG(904)); err != nil {
			t.Fatalf("%s Join: %v", name, err)
		}
		phase("joined")
		// Drain an original member, not the joiner: the full data move
		// plus slot renumbering sits under the post-drain stream.
		if _, err := h.cl.Drain(ctx, 3); err != nil {
			t.Fatalf("%s Drain: %v", name, err)
		}
		phase("drained")
	}

	got := b.String()
	path := filepath.Join("testdata", "golden-membership-lookups.txt")
	if os.Getenv("MEMBERSHIP_GEN_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with MEMBERSHIP_GEN_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("churned lookup stream diverged from golden %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}

// A join landing in the middle of an anti-entropy repair pass (some
// members have swept the kill/replace damage, some have not) must
// leave the cluster consistent: the join rebalance itself fills the
// blank replacement, and the finishing sweeps converge with nothing
// further to move. RandomServer and KeyPartition sit this one out —
// a dead server can hold a sole copy under those schemes, so loss is
// expected there, not a membership bug.
func TestJoinDuringRepairSweep(t *testing.T) {
	ctx := context.Background()
	const victim = 3
	for _, tc := range []struct {
		name string
		cfg  wire.Config
	}{
		{"full", wire.Config{Scheme: wire.FullReplication}},
		{"fixed", wire.Config{Scheme: wire.Fixed, X: 12}},
		{"round", wire.Config{Scheme: wire.RoundRobin, Y: 3}},
		{"hash", wire.Config{Scheme: wire.Hash, Y: 3, Seed: 2}},
		{"multiprobe", wire.Config{Scheme: wire.MultiProbe, Y: 3, Seed: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, 5, 81)
			live := h.workload(tc.cfg, 30)
			h.cl.Fail(victim)
			h.cl.Replace(victim, stats.NewRNG(700))
			// Half a repair pass: only servers 0 and 1 have swept when the
			// join arrives.
			for i := 0; i < 2; i++ {
				r := node.NewRepairer(h.cl.Node(i), node.RepairOptions{Health: h.cl.Health()})
				r.SweepOnce(ctx)
			}
			if _, err := h.cl.Join(ctx, stats.NewRNG(903)); err != nil {
				t.Fatalf("Join: %v", err)
			}
			v := plstest.Observe(h.cl, "k", tc.cfg)
			plstest.Assert(t, "post-join structural", v.Check(live))

			sweepAll(h.cl)
			v = plstest.Observe(h.cl, "k", tc.cfg)
			plstest.Assert(t, "final structural", v.Check(live))
			plstest.Assert(t, "final coverage", v.CheckCoverage(live))
			if st := sweepAll(h.cl); st.Moved != 0 {
				t.Errorf("not converged: final sweep moved %d entries", st.Moved)
			}
		})
	}
}

// Draining the only server that holds a KeyPartition key: the leaver
// is the sole holder, so the entire set must land on the new partition
// home before the slot disappears.
func TestDrainSoleHolderKeyPartition(t *testing.T) {
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.KeyPartition}
	h := newHarness(t, 5, 91)
	entries := entry.Synthetic(20)
	live := liveFrom(entries)
	h.place(initialServer(cfg, "k", 5), cfg, entries)

	home := node.PartitionServer("k", 5)
	if got := h.cl.Node(home).LocalSet("k").Len(); got != 20 {
		t.Fatalf("partition home %d holds %d entries pre-drain, want 20", home, got)
	}
	leaver, err := h.cl.Drain(ctx, home)
	if err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := leaver.LocalSet("k").Len(); got != 0 {
		t.Fatalf("sole holder left with %d entries still aboard", got)
	}
	newHome := node.PartitionServer("k", 4)
	if got := h.cl.Node(newHome).LocalSet("k").Len(); got != 20 {
		t.Fatalf("new partition home %d holds %d entries, want 20", newHome, got)
	}
	v := plstest.Observe(h.cl, "k", cfg)
	plstest.Assert(t, "post-drain structural", v.Check(live))
	plstest.Assert(t, "post-drain coverage", v.CheckCoverage(live))
}

// A drain finishes only once the leaver's handoff was answered. The
// sole holder of a KeyPartition key is cut off from the key's post-drain
// home: its push goes unanswered, so it refuses to ack, the drain fails
// with nothing compacted, and the leaver keeps the only copy. Once the
// partition heals, the same drain retried re-runs the leaver's sweep
// and completes with every entry at the new home.
func TestDrainWaitsForTheLeaversHandoff(t *testing.T) {
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.KeyPartition}
	const n, leaver, newHome = 5, 3, 1
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("k%d", i); node.PartitionServer(k, n) == leaver && node.PartitionServer(k, n-1) == newHome {
			key = k
		}
	}
	h := newHarness(t, n, 92)
	h.mustAck(initialServer(cfg, key, n), wire.Place{Key: key, Config: cfg, Entries: []string{"a", "b", "c"}})
	live := liveFrom([]entry.Entry{"a", "b", "c"})

	h.cl.Chaos().Partition(leaver, newHome)
	if _, err := h.cl.Drain(ctx, leaver); err == nil {
		t.Fatal("the drain completed while the leaver's handoff went unanswered")
	}
	if h.cl.N() != n || h.cl.Node(leaver).LocalSet(key).Len() != 3 || h.cl.Node(newHome).LocalSet(key).Len() != 0 {
		t.Fatalf("after the failed drain: %d members, leaver holds %d, new home %d; want %d, 3, 0",
			h.cl.N(), h.cl.Node(leaver).LocalSet(key).Len(), h.cl.Node(newHome).LocalSet(key).Len(), n)
	}

	h.cl.Chaos().HealAll()
	gone, err := h.cl.Drain(ctx, leaver)
	if err != nil {
		t.Fatalf("drain retried after the heal: %v", err)
	}
	if got := h.cl.Node(newHome).LocalSet(key).Len(); got != 3 {
		t.Fatalf("new home holds %d of 3 entries", got)
	}
	if got := gone.LocalSet(key).Len(); got != 0 {
		t.Errorf("the leaver left with %d entries aboard", got)
	}
	v := plstest.Observe(h.cl, key, cfg)
	plstest.Assert(t, "post-drain structural", v.Check(live))
	plstest.Assert(t, "post-drain coverage", v.CheckCoverage(live))
}

// Double admission of one address must be rejected without perturbing
// the member list or the epoch — through the cluster API and through
// the wire-level Join handler of any member alike. The wire path also
// exercises Leave end to end: both replies are the committed update.
func TestDoubleJoinSameAddressRejected(t *testing.T) {
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.FullReplication}
	h := newHarness(t, 4, 66)
	h.place(1, cfg, entry.Synthetic(10))

	if _, err := h.cl.JoinAddr(ctx, "sim://joiner", stats.NewRNG(1)); err != nil {
		t.Fatalf("first join: %v", err)
	}
	epoch, n := h.cl.MemberEpoch(), h.cl.N()
	if _, err := h.cl.JoinAddr(ctx, "sim://joiner", stats.NewRNG(2)); err == nil {
		t.Fatal("second join of the same address accepted")
	}
	if h.cl.N() != n || h.cl.MemberEpoch() != epoch {
		t.Fatalf("failed join perturbed the cluster: n %d→%d, epoch %d→%d",
			n, h.cl.N(), epoch, h.cl.MemberEpoch())
	}

	// Wire path: every member coordinates Join/Leave itself.
	for s := 0; s < n; s++ {
		if reply := h.call(s, wire.Join{Addr: "sim://joiner"}); func() bool {
			ack, ok := reply.(wire.Ack)
			return !ok || ack.Err == ""
		}() {
			t.Fatalf("wire double join via %d replied %+v, want error Ack", s, reply)
		}
	}
	if h.cl.N() != n || h.cl.MemberEpoch() != epoch {
		t.Fatalf("refused wire join perturbed the cluster: n %d→%d, epoch %d→%d",
			n, h.cl.N(), epoch, h.cl.MemberEpoch())
	}
	// cluster.JoinAddr and Drain send wire.Join and wire.Leave to the
	// highest surviving slot and return once it replied with the update.
	if _, err := h.cl.JoinAddr(ctx, "sim://other", stats.NewRNG(3)); err != nil {
		t.Fatalf("join of a new address: %v", err)
	}
	if _, err := h.cl.Drain(ctx, n); err != nil {
		t.Fatalf("drain of the new member: %v", err)
	}
	if h.cl.N() != n || h.cl.MemberEpoch() != epoch+2 {
		t.Fatalf("after join+drain: N = %d, epoch %d; want %d and %d", h.cl.N(), h.cl.MemberEpoch(), n, epoch+2)
	}
	reply := h.call(0, wire.Leave{Server: n})
	if ack, ok := reply.(wire.Ack); !ok || !strings.Contains(ack.Err, "out of range") {
		t.Fatalf("wire leave of a drained slot replied %+v, want an out-of-range refusal", reply)
	}
}

// Two coordinators read epoch e and each commit a different transition
// under e+1. The cluster's drain of server 4 reaches the members first;
// a second coordinator's drain of server 2 under the same epoch is then
// refused by every member with ErrMembershipConflict — matched on the
// reply and on its wire round trip — and moves nothing, while the
// winner's own re-broadcast still acks.
func TestConflictingTransitionsUnderOneEpoch(t *testing.T) {
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.Hash, Y: 3, Seed: 2}
	h := newHarness(t, 5, 71)
	live := h.workload(cfg, 12)
	addrs, epoch := h.cl.Addrs(), h.cl.MemberEpoch()

	if _, err := h.cl.Drain(ctx, 4); err != nil {
		t.Fatalf("Drain(4): %v", err)
	}
	won := wire.MembershipUpdate{Epoch: epoch + 1, Leaving: 4, Addrs: h.cl.Addrs()}
	lost := wire.MembershipUpdate{Epoch: epoch + 1, Leaving: 2, Addrs: append(append([]string(nil), addrs[:2]...), addrs[3:]...)}
	before := clusterSnapshot(h.cl, "k")

	for s := 0; s < h.cl.N(); s++ {
		reply := h.call(s, lost)
		if err := node.MembershipAckErr(reply); !errors.Is(err, node.ErrMembershipConflict) {
			t.Fatalf("member %d answered the conflicting update with %v, want ErrMembershipConflict", s, err)
		}
		wired, err := wire.Decode(wire.Encode(reply))
		if err != nil {
			t.Fatal(err)
		}
		if err := node.MembershipAckErr(wired); !errors.Is(err, node.ErrMembershipConflict) {
			t.Fatalf("member %d's refusal after a wire round trip is %v, want ErrMembershipConflict", s, err)
		}
		h.mustAck(s, won)
		if got := h.cl.Node(s).MemberEpoch(); got != won.Epoch {
			t.Fatalf("member %d at epoch %d, want %d", s, got, won.Epoch)
		}
	}
	if after := clusterSnapshot(h.cl, "k"); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused transition moved entries:\n got %+v\nwant %+v", after, before)
	}
	v := plstest.Observe(h.cl, "k", cfg)
	plstest.Assert(t, "after the refused transition", v.Check(live))
	plstest.Assert(t, "after the refused transition, coverage", v.CheckCoverage(live))
}

// Drain refusals: out-of-range slots, down members (a corpse cannot
// push its entries — that is Replace + repair's job), and the last
// member standing.
func TestDrainRefusals(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, 3, 95)
	if _, err := h.cl.Drain(ctx, 5); err == nil {
		t.Error("drain of out-of-range slot accepted")
	}
	h.cl.Fail(2)
	if _, err := h.cl.Drain(ctx, 2); err == nil {
		t.Error("drain of a down member accepted")
	}
	single := cluster.New(1, stats.NewRNG(96))
	if _, err := single.Drain(ctx, 0); err == nil {
		t.Error("drain of the last member accepted")
	}
}

// Draining the Round-y sequencer: old server 1 becomes rank 0, the
// sequencer, holding no counters. Its first update rebuilds them from
// the positions the members hold, so adds and deletes keep assigning
// fresh positions without a repair pass in between.
func TestDrainCoordinatorRoundRobin(t *testing.T) {
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	h := newHarness(t, 5, 97)
	live := h.workload(cfg, 12)

	if _, err := h.cl.Drain(ctx, 0); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i := 0; i < 4; i++ {
		v := entry.Entry(fmt.Sprintf("post%d", i))
		h.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: string(v)})
		live.Add(v)
	}
	h.mustAck(0, wire.Delete{Key: "k", Config: cfg, Entry: "v3"})
	live.Remove("v3")
	// 12 placed and 4 added before the drain, 4 added and 1 deleted after.
	if head, tail := h.cl.Node(0).Counters("k"); head != 1 || tail != 20 {
		t.Fatalf("counters after the drain = (%d,%d), want (1,20)", head, tail)
	}
	v := plstest.Observe(h.cl, "k", cfg)
	plstest.Assert(t, "post-drain structural", v.Check(live))
	plstest.Assert(t, "post-drain coverage", v.CheckCoverage(live))
}

// TestMembershipChurnSoak interleaves joins, drains, and live adds
// over many rounds for every scheme, re-checking the structural and
// coverage invariants after each transition. The default round count
// keeps it in the ordinary suite; the nightly workflow scales it up
// with MEMBERSHIP_SOAK_ROUNDS.
func TestMembershipChurnSoak(t *testing.T) {
	rounds := 3
	if s := os.Getenv("MEMBERSHIP_SOAK_ROUNDS"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 1 {
			t.Fatalf("bad MEMBERSHIP_SOAK_ROUNDS %q", s)
		}
		rounds = v
	}
	ctx := context.Background()
	for name, cfg := range membershipConfigs() {
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, 5, 13)
			live := h.workload(cfg, 30)
			rng := stats.NewRNG(0xc0ffee)
			for r := 0; r < rounds; r++ {
				if _, err := h.cl.Join(ctx, stats.NewRNG(uint64(7000+r))); err != nil {
					t.Fatalf("round %d join: %v", r, err)
				}
				v := entry.Entry(fmt.Sprintf("soak%d", r))
				h.mustAck(initialServer(cfg, "k", h.cl.N()), wire.Add{Key: "k", Config: cfg, Entry: string(v)})
				live.Add(v)
				view := plstest.Observe(h.cl, "k", cfg)
				plstest.Assert(t, fmt.Sprintf("round %d post-join", r), view.Check(live))
				plstest.Assert(t, fmt.Sprintf("round %d post-join coverage", r), view.CheckCoverage(live))

				// Drain a rotating survivor, never the same slot twice in
				// a row, so renumbering keeps being exercised.
				victim := 1 + rng.IntN(h.cl.N()-1)
				if _, err := h.cl.Drain(ctx, victim); err != nil {
					t.Fatalf("round %d drain %d: %v", r, victim, err)
				}
				view = plstest.Observe(h.cl, "k", cfg)
				plstest.Assert(t, fmt.Sprintf("round %d post-drain", r), view.Check(live))
				plstest.Assert(t, fmt.Sprintf("round %d post-drain coverage", r), view.CheckCoverage(live))
			}
			// Nothing left over: a final repair sweep finds no work.
			if s := sweepAll(h.cl); s.Moved != 0 {
				t.Errorf("repair after soak moved %d entries; churn left holes", s.Moved)
			}
		})
	}
}

// A coordinator behind the cluster — a restarted daemon, whose members'
// epochs live only in memory — proposes an epoch the members have
// already passed. Every member refuses it with ErrMembershipConflict
// instead of acking it as a replay while the coordinator's own view
// moves on, and it moves nothing; the committed transition itself still
// replays cleanly.
func TestOlderEpochConflictRefused(t *testing.T) {
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.Hash, Y: 3, Seed: 2}
	h := newHarness(t, 4, 72)
	live := h.workload(cfg, 12)
	for i := 0; i < 2; i++ {
		if _, err := h.cl.Join(ctx, stats.NewRNG(uint64(910+i))); err != nil {
			t.Fatalf("join %d: %v", i, err)
		}
	}
	addrs := h.cl.Addrs()
	stale := wire.MembershipUpdate{Epoch: 1, Leaving: 1, Addrs: slices.Delete(slices.Clone(addrs), 1, 2)}
	committed := wire.MembershipUpdate{Epoch: 2, Leaving: -1, Addrs: addrs}
	before := clusterSnapshot(h.cl, "k")
	for s := 0; s < h.cl.N(); s++ {
		if err := node.MembershipAckErr(h.call(s, stale)); !errors.Is(err, node.ErrMembershipConflict) {
			t.Fatalf("member %d answered an epoch-1 drain at epoch 2 with %v, want ErrMembershipConflict", s, err)
		}
		h.mustAck(s, committed)
		if got := h.cl.Node(s).MemberEpoch(); got != 2 {
			t.Fatalf("member %d at epoch %d, want 2", s, got)
		}
	}
	if after := clusterSnapshot(h.cl, "k"); !reflect.DeepEqual(after, before) {
		t.Fatalf("the refused transition moved entries:\n got %+v\nwant %+v", after, before)
	}
	v := plstest.Observe(h.cl, "k", cfg)
	plstest.Assert(t, "after the refused transition", v.Check(live))
	plstest.Assert(t, "after the refused transition, coverage", v.CheckCoverage(live))
}

// blockingHost holds its node's first commit, before its sweep, in
// Apply until release closes.
type blockingHost struct{ entered, release chan struct{} }

func (h blockingHost) Apply(v node.View) transport.Caller {
	if v.Epoch > 0 {
		close(h.entered)
		<-h.release
	}
	return nil
}

// A coordinator's retry can deliver the update a member is still
// sweeping. The duplicate acks only once that sweep has finished, so a
// member never acks before it has moved its share; a duplicate whose
// caller gives up returns an error, not an ack.
func TestReplayAcksAfterSweep(t *testing.T) {
	nd := node.New(0, stats.NewRNG(1))
	host := blockingHost{entered: make(chan struct{}), release: make(chan struct{})}
	nd.SetHost(host, node.View{Addrs: []string{"a:1"}})
	m := wire.MembershipUpdate{Epoch: 1, Leaving: -1, Addrs: []string{"a:1", "b:1"}}
	first, dup := make(chan wire.Message, 1), make(chan wire.Message, 1)
	go func() { first <- nd.Handle(context.Background(), m) }()
	<-host.entered
	go func() { dup <- nd.Handle(context.Background(), m) }()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := node.MembershipAckErr(nd.Handle(cancelled, m)); err == nil {
		t.Fatal("a cancelled duplicate acked while the first delivery was still sweeping")
	}
	select {
	case r := <-dup:
		t.Fatalf("duplicate replied %+v while the first delivery was still sweeping", r)
	case <-time.After(50 * time.Millisecond):
	}
	close(host.release)
	for name, ch := range map[string]chan wire.Message{"first delivery": first, "duplicate": dup} {
		if err := node.MembershipAckErr(<-ch); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// Replace hands the fresh node its slot's committed epoch, so a
// replaced highest slot still coordinates the next join at the
// cluster's epoch + 1 instead of proposing one every member refuses.
func TestJoinCoordinatedByReplacedNode(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, 4, 73)
	if _, err := h.cl.Join(ctx, stats.NewRNG(920)); err != nil {
		t.Fatalf("first join: %v", err)
	}
	last := h.cl.N() - 1
	h.cl.Fail(last)
	if got := h.cl.Replace(last, stats.NewRNG(921)).MemberEpoch(); got != 1 {
		t.Fatalf("replacement node at epoch %d, want its slot's 1", got)
	}
	if _, err := h.cl.Join(ctx, stats.NewRNG(922)); err != nil {
		t.Fatalf("join coordinated by the replaced node: %v", err)
	}
	for s := 0; s < h.cl.N(); s++ {
		if got := h.cl.Node(s).MemberEpoch(); got != 2 {
			t.Errorf("member %d at epoch %d, want 2", s, got)
		}
	}
}

// A down member fails a join or a drain at that member: the coordinator
// stops there instead of skipping it.
func TestMembershipFailsAtDownMember(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, 4, 74)
	h.cl.Fail(1)
	if _, err := h.cl.Join(ctx, stats.NewRNG(930)); err == nil || !strings.Contains(err.Error(), "member 1") {
		t.Errorf("join with member 1 down: %v, want a failure at member 1", err)
	}
	h = newHarness(t, 4, 75)
	h.cl.Fail(2)
	if _, err := h.cl.Drain(ctx, 0); err == nil || !strings.Contains(err.Error(), "member 2") {
		t.Errorf("drain with member 2 down: %v, want a failure at member 2", err)
	}
	if h.cl.N() != 4 {
		t.Errorf("a failed drain compacted the cluster to %d members", h.cl.N())
	}
}
