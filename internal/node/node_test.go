package node_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/wire"
)

// harness wraps a cluster with raw-message helpers so node behavior is
// tested without the client drivers.
type harness struct {
	t  *testing.T
	cl *cluster.Cluster
}

func newHarness(t *testing.T, n int, seed uint64) *harness {
	t.Helper()
	return &harness{t: t, cl: cluster.New(n, stats.NewRNG(seed))}
}

func (h *harness) call(server int, msg wire.Message) wire.Message {
	h.t.Helper()
	reply, err := h.cl.Caller().Call(context.Background(), server, msg)
	if err != nil {
		h.t.Fatalf("Call(%d, %T): %v", server, msg, err)
	}
	return reply
}

func (h *harness) mustAck(server int, msg wire.Message) {
	h.t.Helper()
	reply := h.call(server, msg)
	if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
		h.t.Fatalf("Call(%d, %T) reply: %+v", server, msg, reply)
	}
}

func (h *harness) place(server int, cfg wire.Config, entries []entry.Entry) {
	h.t.Helper()
	es := make([]string, len(entries))
	for i, v := range entries {
		es[i] = string(v)
	}
	h.mustAck(server, wire.Place{Key: "k", Config: cfg, Entries: es})
}

func (h *harness) set(server int) *entry.Set { return h.cl.Node(server).LocalSet("k") }

func TestPlaceFullReplication(t *testing.T) {
	h := newHarness(t, 5, 1)
	entries := entry.Synthetic(30)
	h.place(2, wire.Config{Scheme: wire.FullReplication}, entries)
	for s := 0; s < 5; s++ {
		set := h.set(s)
		if set.Len() != 30 {
			t.Fatalf("server %d has %d entries, want 30", s, set.Len())
		}
		for _, v := range entries {
			if !set.Contains(v) {
				t.Fatalf("server %d missing %s", s, v)
			}
		}
	}
}

func TestPlaceFixedKeepsFirstX(t *testing.T) {
	h := newHarness(t, 4, 2)
	entries := entry.Synthetic(50)
	h.place(1, wire.Config{Scheme: wire.Fixed, X: 12}, entries)
	for s := 0; s < 4; s++ {
		set := h.set(s)
		if set.Len() != 12 {
			t.Fatalf("server %d has %d entries, want 12", s, set.Len())
		}
		for i := 0; i < 12; i++ {
			if !set.Contains(entries[i]) {
				t.Fatalf("server %d missing first-x entry %s", s, entries[i])
			}
		}
	}
}

func TestPlaceFixedSmallH(t *testing.T) {
	// Fewer entries than x: everything is stored.
	h := newHarness(t, 3, 3)
	h.place(0, wire.Config{Scheme: wire.Fixed, X: 20}, entry.Synthetic(5))
	for s := 0; s < 3; s++ {
		if h.set(s).Len() != 5 {
			t.Fatalf("server %d has %d entries, want 5", s, h.set(s).Len())
		}
	}
}

func TestPlaceRandomServerSubsets(t *testing.T) {
	h := newHarness(t, 10, 4)
	entries := entry.Synthetic(100)
	h.place(3, wire.Config{Scheme: wire.RandomServer, X: 20}, entries)
	valid := make(map[entry.Entry]bool, len(entries))
	for _, v := range entries {
		valid[v] = true
	}
	distinctSets := make(map[string]bool)
	for s := 0; s < 10; s++ {
		set := h.set(s)
		if set.Len() != 20 {
			t.Fatalf("server %d has %d entries, want exactly x=20", s, set.Len())
		}
		for _, v := range set.Members() {
			if !valid[v] {
				t.Fatalf("server %d stores unknown entry %s", s, v)
			}
		}
		distinctSets[set.String()] = true
		if got := h.cl.Node(s).SystemCount("k"); got != 100 {
			t.Fatalf("server %d hCount = %d, want 100", s, got)
		}
	}
	// Independent random subsets: astronomically unlikely to coincide.
	if len(distinctSets) < 9 {
		t.Fatalf("only %d distinct subsets across 10 servers", len(distinctSets))
	}
}

func TestPlaceRoundRobinAssignment(t *testing.T) {
	h := newHarness(t, 4, 5)
	entries := entry.Synthetic(10)
	h.place(0, wire.Config{Scheme: wire.RoundRobin, Y: 2}, entries)
	// Entry i lives exactly on servers (i mod 4) and (i+1 mod 4).
	for i, v := range entries {
		for s := 0; s < 4; s++ {
			want := s == i%4 || s == (i+1)%4
			if got := h.set(s).Contains(v); got != want {
				t.Fatalf("entry %s on server %d = %v, want %v", v, s, got, want)
			}
		}
	}
	// Load balance: per-server counts differ by at most y.
	minLen, maxLen := h.set(0).Len(), h.set(0).Len()
	for s := 1; s < 4; s++ {
		l := h.set(s).Len()
		if l < minLen {
			minLen = l
		}
		if l > maxLen {
			maxLen = l
		}
	}
	if maxLen-minLen > 2 {
		t.Fatalf("round-robin imbalance %d > y=2", maxLen-minLen)
	}
	if head, tail := h.cl.Node(0).Counters("k"); head != 0 || tail != 10 {
		t.Fatalf("counters = (%d,%d), want (0,10)", head, tail)
	}
}

// TestPlaceRoundRobinRejectsNonCoordinator: a Round-y place, add or
// delete at any server but 0, the key's sequencer, is refused, and
// nothing is stored.
func TestPlaceRoundRobinRejectsNonCoordinator(t *testing.T) {
	h := newHarness(t, 4, 6)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	for _, msg := range []wire.Message{
		wire.Place{Key: "k", Config: cfg, Entries: []string{"v1"}},
		wire.Add{Key: "k", Config: cfg, Entry: "v2"},
		wire.Delete{Key: "k", Config: cfg, Entry: "v1"},
	} {
		for s := 1; s < h.cl.N(); s++ {
			if ack := h.call(s, msg).(wire.Ack); !strings.Contains(ack.Err, "must be sent to a coordinator") {
				t.Errorf("Round-y %T on server %d = %+v, want a refusal", msg, s, ack)
			}
		}
	}
	if got := h.cl.TotalStorage("k"); got != 0 {
		t.Errorf("cluster stores %d copies, want 0", got)
	}
}

func TestPlaceHashAssignment(t *testing.T) {
	h := newHarness(t, 10, 7)
	cfg := wire.Config{Scheme: wire.Hash, Y: 3, Seed: 12345}
	entries := entry.Synthetic(40)
	h.place(4, cfg, entries)
	for _, v := range entries {
		want := make(map[int]bool)
		for _, s := range node.HashAssign(string(v), 3, 10, 12345) {
			want[s] = true
		}
		for s := 0; s < 10; s++ {
			if got := h.set(s).Contains(v); got != want[s] {
				t.Fatalf("entry %s on server %d = %v, want %v", v, s, got, want[s])
			}
		}
	}
}

func TestPlaceValidatesConfig(t *testing.T) {
	h := newHarness(t, 4, 8)
	reply := h.call(0, wire.Place{
		Key:     "k",
		Config:  wire.Config{Scheme: wire.RoundRobin, Y: 9},
		Entries: []string{"v1"},
	})
	if ack := reply.(wire.Ack); ack.Err == "" {
		t.Fatal("y > n accepted")
	}
}

func TestPlaceReplacesPreviousEntries(t *testing.T) {
	h := newHarness(t, 3, 9)
	cfg := wire.Config{Scheme: wire.FullReplication}
	h.place(0, cfg, entry.Synthetic(5))
	h.place(1, cfg, []entry.Entry{"fresh1", "fresh2"})
	for s := 0; s < 3; s++ {
		set := h.set(s)
		if set.Len() != 2 || !set.Contains("fresh1") || set.Contains("v1") {
			t.Fatalf("server %d set after re-place = %s", s, set)
		}
	}
}

func TestLookupSamplesLocalSet(t *testing.T) {
	h := newHarness(t, 3, 10)
	h.place(0, wire.Config{Scheme: wire.FullReplication}, entry.Synthetic(20))
	reply := h.call(1, wire.Lookup{Key: "k", T: 7})
	lr := reply.(wire.LookupReply)
	if len(lr.Entries) != 7 {
		t.Fatalf("lookup returned %d entries, want 7", len(lr.Entries))
	}
	seen := make(map[string]bool)
	for _, v := range lr.Entries {
		if seen[v] {
			t.Fatalf("duplicate %s in lookup reply", v)
		}
		seen[v] = true
	}
	// Asking beyond the local size returns everything.
	lr = h.call(1, wire.Lookup{Key: "k", T: 100}).(wire.LookupReply)
	if len(lr.Entries) != 20 {
		t.Fatalf("over-ask returned %d, want 20", len(lr.Entries))
	}
}

func TestLookupUnknownKeyEmpty(t *testing.T) {
	h := newHarness(t, 2, 11)
	lr := h.call(0, wire.Lookup{Key: "nope", T: 3}).(wire.LookupReply)
	if len(lr.Entries) != 0 || lr.Err != "" {
		t.Fatalf("unknown key reply = %+v", lr)
	}
}

func TestAddFullReplication(t *testing.T) {
	h := newHarness(t, 4, 12)
	h.place(0, wire.Config{Scheme: wire.FullReplication}, entry.Synthetic(3))
	h.mustAck(2, wire.Add{Key: "k", Config: wire.Config{Scheme: wire.FullReplication}, Entry: "new"})
	for s := 0; s < 4; s++ {
		if !h.set(s).Contains("new") {
			t.Fatalf("server %d missing added entry", s)
		}
	}
}

func TestAddFixedSelectiveBroadcast(t *testing.T) {
	h := newHarness(t, 5, 13)
	cfg := wire.Config{Scheme: wire.Fixed, X: 4}
	h.place(0, cfg, entry.Synthetic(3)) // below x: room for one more
	before := h.cl.Messages()
	h.mustAck(1, wire.Add{Key: "k", Config: cfg, Entry: "a1"})
	// Broadcast happened: 1 (client request) + 5 (broadcast).
	if got := h.cl.Messages() - before; got != 6 {
		t.Fatalf("add-below-x cost %d messages, want 6", got)
	}
	for s := 0; s < 5; s++ {
		if !h.set(s).Contains("a1") {
			t.Fatalf("server %d missing a1", s)
		}
	}
	// Now the servers are full: the next add is ignored with cost 1.
	before = h.cl.Messages()
	h.mustAck(2, wire.Add{Key: "k", Config: cfg, Entry: "a2"})
	if got := h.cl.Messages() - before; got != 1 {
		t.Fatalf("add-at-x cost %d messages, want 1", got)
	}
	for s := 0; s < 5; s++ {
		if h.set(s).Contains("a2") {
			t.Fatalf("server %d stored entry beyond x", s)
		}
	}
}

func TestDeleteFixedSelectiveBroadcast(t *testing.T) {
	h := newHarness(t, 5, 14)
	cfg := wire.Config{Scheme: wire.Fixed, X: 3}
	h.place(0, cfg, entry.Synthetic(10)) // servers keep v1..v3
	// Deleting an unstored entry costs 1 and changes nothing.
	before := h.cl.Messages()
	h.mustAck(1, wire.Delete{Key: "k", Config: cfg, Entry: "v7"})
	if got := h.cl.Messages() - before; got != 1 {
		t.Fatalf("unstored delete cost %d, want 1", got)
	}
	// Deleting a stored entry broadcasts.
	before = h.cl.Messages()
	h.mustAck(1, wire.Delete{Key: "k", Config: cfg, Entry: "v2"})
	if got := h.cl.Messages() - before; got != 6 {
		t.Fatalf("stored delete cost %d, want 6", got)
	}
	for s := 0; s < 5; s++ {
		if h.set(s).Contains("v2") {
			t.Fatalf("server %d still has v2", s)
		}
		if h.set(s).Len() != 2 {
			t.Fatalf("server %d has %d entries, want 2", s, h.set(s).Len())
		}
	}
}

func TestAddDeleteRandomServerCounter(t *testing.T) {
	h := newHarness(t, 6, 15)
	cfg := wire.Config{Scheme: wire.RandomServer, X: 5}
	h.place(0, cfg, entry.Synthetic(20))
	h.mustAck(1, wire.Add{Key: "k", Config: cfg, Entry: "n1"})
	h.mustAck(2, wire.Add{Key: "k", Config: cfg, Entry: "n2"})
	h.mustAck(3, wire.Delete{Key: "k", Config: cfg, Entry: "v1"})
	for s := 0; s < 6; s++ {
		if got := h.cl.Node(s).SystemCount("k"); got != 21 {
			t.Fatalf("server %d hCount = %d, want 21", s, got)
		}
		if h.set(s).Contains("v1") {
			t.Fatalf("server %d still stores deleted v1", s)
		}
		if h.set(s).Len() > 5 {
			t.Fatalf("server %d exceeded x: %d", s, h.set(s).Len())
		}
	}
}

func TestRandomServerFillsBelowX(t *testing.T) {
	h := newHarness(t, 4, 16)
	cfg := wire.Config{Scheme: wire.RandomServer, X: 10}
	h.place(0, cfg, entry.Synthetic(3)) // below x everywhere
	h.mustAck(1, wire.Add{Key: "k", Config: cfg, Entry: "n1"})
	for s := 0; s < 4; s++ {
		if !h.set(s).Contains("n1") {
			t.Fatalf("server %d below x did not store the add", s)
		}
	}
}

func TestReservoirInclusionProbability(t *testing.T) {
	// Place x=5 of 5, then add 95 more: each server's final set should
	// include any given entry with probability ~x/h = 0.05. We check
	// the aggregate over many seeds.
	const (
		x      = 5
		hTotal = 100
		trials = 60
	)
	counts := make(map[entry.Entry]int)
	cfg := wire.Config{Scheme: wire.RandomServer, X: x}
	for trial := 0; trial < trials; trial++ {
		h := newHarness(t, 1, uint64(1000+trial))
		h.place(0, cfg, entry.Synthetic(x))
		for i := x + 1; i <= hTotal; i++ {
			h.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: fmt.Sprintf("v%d", i)})
		}
		set := h.set(0)
		if set.Len() != x {
			t.Fatalf("trial %d: reservoir size %d, want %d", trial, set.Len(), x)
		}
		for _, v := range set.Members() {
			counts[v]++
		}
	}
	// Early vs late entries should be included at similar rates: compare
	// the first and last third.
	firstThird, lastThird := 0, 0
	for i := 1; i <= hTotal; i++ {
		c := counts[entry.Entry(fmt.Sprintf("v%d", i))]
		if i <= 33 {
			firstThird += c
		}
		if i > 67 {
			lastThird += c
		}
	}
	// Expected ~= trials * x * 33/100 = 99 each; allow generous noise.
	if firstThird < 50 || firstThird > 160 || lastThird < 50 || lastThird > 160 {
		t.Fatalf("reservoir inclusion skewed: first third %d, last third %d (want ~99 each)", firstThird, lastThird)
	}
}

func TestAddRoundRobinUsesTail(t *testing.T) {
	h := newHarness(t, 4, 17)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	h.place(0, cfg, entry.Synthetic(6)) // tail = 6
	h.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: "n1"})
	// Position 6 → servers 2 and 3.
	for s := 0; s < 4; s++ {
		want := s == 2 || s == 3
		if got := h.set(s).Contains("n1"); got != want {
			t.Fatalf("n1 on server %d = %v, want %v", s, got, want)
		}
	}
	if _, tail := h.cl.Node(0).Counters("k"); tail != 7 {
		t.Fatalf("tail = %d, want 7", tail)
	}
	// Updates must go to the coordinator.
	reply := h.call(2, wire.Add{Key: "k", Config: cfg, Entry: "n2"})
	if ack := reply.(wire.Ack); ack.Err == "" {
		t.Fatal("Round add on non-coordinator accepted")
	}
}

// TestRoundRobinDeletePaperExample reproduces the Fig. 10 walkthrough:
// 5 entries on 4 servers with y=2; deleting the middle entry makes the
// head entry's copies migrate into the hole and advances head.
func TestRoundRobinDeletePaperExample(t *testing.T) {
	h := newHarness(t, 4, 18)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	entries := entry.Synthetic(5)
	h.place(0, cfg, entries)
	// Layout before: v_i on servers (i, i+1 mod 4), i 0-based:
	//   S0{v1,v4,v5} S1{v1,v2,v5} S2{v2,v3} S3{v3,v4}
	h.mustAck(0, wire.Delete{Key: "k", Config: cfg, Entry: "v3"})
	// v1 (oldest at head server 0) replaces v3 on S2,S3 and leaves S0,S1.
	want := map[int][]entry.Entry{
		0: {"v4", "v5"},
		1: {"v2", "v5"},
		2: {"v2", "v1"},
		3: {"v4", "v1"},
	}
	for s, entries := range want {
		set := h.set(s)
		if set.Len() != len(entries) {
			t.Fatalf("server %d = %s, want %v", s, set, entries)
		}
		for _, v := range entries {
			if !set.Contains(v) {
				t.Fatalf("server %d = %s, missing %s", s, set, v)
			}
		}
	}
	if head, tail := h.cl.Node(0).Counters("k"); head != 1 || tail != 5 {
		t.Fatalf("counters = (%d,%d), want (1,5)", head, tail)
	}
}

// TestRoundRobinChurnInvariants drives Round-y through a long random
// add/delete sequence and verifies no entry is lost, no deleted entry
// survives, and every live entry keeps between 1 and y copies.
func TestRoundRobinChurnInvariants(t *testing.T) {
	const n, y = 6, 3
	h := newHarness(t, n, 19)
	rng := stats.NewRNG(77)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: y}
	live := entry.NewSet(64)
	initial := entry.Synthetic(20)
	h.place(0, cfg, initial)
	for _, v := range initial {
		live.Add(v)
	}
	nextID := 21
	for step := 0; step < 400; step++ {
		if live.Len() > 0 && rng.Bool(0.5) {
			victim := live.At(rng.IntN(live.Len()))
			h.mustAck(0, wire.Delete{Key: "k", Config: cfg, Entry: string(victim)})
			live.Remove(victim)
		} else {
			v := entry.Entry(fmt.Sprintf("v%d", nextID))
			nextID++
			h.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: string(v)})
			live.Add(v)
		}
	}
	copies := make(map[entry.Entry]int)
	for s := 0; s < n; s++ {
		for _, v := range h.set(s).Members() {
			copies[v]++
		}
	}
	for _, v := range live.Members() {
		c := copies[v]
		// The position invariant guarantees exactly y copies per live
		// entry (each position keeps y consecutive homes).
		if c != y {
			t.Errorf("live entry %s has %d copies, want exactly %d", v, c, y)
		}
		delete(copies, v)
	}
	for v, c := range copies {
		t.Errorf("dead entry %s still has %d copies", v, c)
	}
}

func TestAddDeleteHash(t *testing.T) {
	h := newHarness(t, 8, 20)
	cfg := wire.Config{Scheme: wire.Hash, Y: 3, Seed: 999}
	h.place(0, cfg, entry.Synthetic(10))
	before := h.cl.Messages()
	h.mustAck(5, wire.Add{Key: "k", Config: cfg, Entry: "fresh"})
	wantTargets := node.HashAssign("fresh", 3, 8, 999)
	// Cost: 1 client request + one store per distinct target.
	if got := h.cl.Messages() - before; got != int64(1+len(wantTargets)) {
		t.Fatalf("hash add cost %d, want %d", got, 1+len(wantTargets))
	}
	targetSet := make(map[int]bool)
	for _, s := range wantTargets {
		targetSet[s] = true
	}
	for s := 0; s < 8; s++ {
		if got := h.set(s).Contains("fresh"); got != targetSet[s] {
			t.Fatalf("fresh on server %d = %v, want %v", s, got, targetSet[s])
		}
	}
	h.mustAck(2, wire.Delete{Key: "k", Config: cfg, Entry: "fresh"})
	for s := 0; s < 8; s++ {
		if h.set(s).Contains("fresh") {
			t.Fatalf("server %d still has deleted hash entry", s)
		}
	}
}

func TestLazyInitAddBeforePlace(t *testing.T) {
	h := newHarness(t, 4, 21)
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 5}
	h.mustAck(1, wire.Add{Key: "fresh-key", Config: cfg, Entry: "only"})
	found := 0
	for s := 0; s < 4; s++ {
		if h.cl.Node(s).LocalSet("fresh-key").Contains("only") {
			found++
		}
	}
	want := len(node.HashAssign("only", 2, 4, 5))
	if found != want {
		t.Fatalf("lazy-init entry on %d servers, want %d", found, want)
	}
}

func TestDumpAndPing(t *testing.T) {
	h := newHarness(t, 2, 22)
	h.place(0, wire.Config{Scheme: wire.FullReplication}, entry.Synthetic(4))
	dr := h.call(1, wire.Dump{Key: "k"}).(wire.DumpReply)
	if len(dr.Entries) != 4 {
		t.Fatalf("dump returned %d entries, want 4", len(dr.Entries))
	}
	dr = h.call(1, wire.Dump{Key: "missing"}).(wire.DumpReply)
	if len(dr.Entries) != 0 {
		t.Fatal("dump of unknown key not empty")
	}
	if ack := h.call(0, wire.Ping{}).(wire.Ack); ack.Err != "" {
		t.Fatalf("ping error: %s", ack.Err)
	}
}

func TestLocalLenMatchesLocalSet(t *testing.T) {
	h := newHarness(t, 3, 23)
	h.place(0, wire.Config{Scheme: wire.Fixed, X: 7}, entry.Synthetic(30))
	for s := 0; s < 3; s++ {
		if h.cl.Node(s).LocalLen("k") != h.set(s).Len() {
			t.Fatalf("server %d LocalLen mismatch", s)
		}
	}
	if h.cl.Node(0).LocalLen("none") != 0 {
		t.Fatal("LocalLen of unknown key nonzero")
	}
}

func TestHashAssignProperties(t *testing.T) {
	for _, y := range []int{1, 2, 4, 8} {
		for i := 0; i < 200; i++ {
			v := fmt.Sprintf("entry-%d", i)
			targets := node.HashAssign(v, y, 10, 42)
			if len(targets) == 0 || len(targets) > y {
				t.Fatalf("HashAssign(%q, y=%d) returned %d targets", v, y, len(targets))
			}
			seen := make(map[int]bool)
			for _, s := range targets {
				if s < 0 || s >= 10 || seen[s] {
					t.Fatalf("HashAssign(%q) invalid targets %v", v, targets)
				}
				seen[s] = true
			}
			// Determinism.
			again := node.HashAssign(v, y, 10, 42)
			if len(again) != len(targets) {
				t.Fatalf("HashAssign not deterministic for %q", v)
			}
			for j := range again {
				if again[j] != targets[j] {
					t.Fatalf("HashAssign not deterministic for %q", v)
				}
			}
		}
	}
	if node.HashAssign("x", 0, 10, 1) != nil || node.HashAssign("x", 2, 0, 1) != nil {
		t.Fatal("degenerate HashAssign not nil")
	}
}

func TestHashAssignUniformAcrossSeeds(t *testing.T) {
	// With y=1, the assignment of a fixed entry across 5000 seeds
	// should hit each of 10 servers ~500 times.
	counts := make([]int, 10)
	for seed := 0; seed < 5000; seed++ {
		counts[node.HashAssign("v42", 1, 10, uint64(seed))[0]]++
	}
	for s, c := range counts {
		if c < 350 || c > 650 {
			t.Fatalf("server %d assigned %d of 5000, want ~500", s, c)
		}
	}
}

func TestUnexpectedMessageKind(t *testing.T) {
	h := newHarness(t, 1, 24)
	// A reply kind arriving as a request is rejected, not crashed on.
	reply := h.call(0, wire.LookupReply{})
	if ack, ok := reply.(wire.Ack); !ok || ack.Err == "" {
		t.Fatalf("unexpected-kind reply = %#v", reply)
	}
}
