package node

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// wantPeerCalls takes the calls logged since the last take and checks
// them, in order, against want; none may be a node calling itself.
func (lc *loopCluster) wantPeerCalls(what string, want ...peerCall) {
	lc.t.Helper()
	got := lc.log.take()
	if !reflect.DeepEqual(got, want) {
		lc.t.Errorf("%s: peer calls {from to kind}\n got %v\nwant %v", what, got, want)
	}
	for _, c := range got {
		if c.from == c.to {
			lc.t.Errorf("%s: server %d sent itself a kind-%d message through its peer caller", what, c.from, c.kind)
		}
	}
}

// localDeliveries returns each node's node.local_deliveries count.
func (lc *loopCluster) localDeliveries() []int64 {
	return lc.metrics.LocalDeliveries.Values()
}

// TestSelfAddressedMessagesStayInProcess counts, over real sockets, the
// peer calls behind updates whose fan-out includes the server running
// them: each message to another server is one call, each message to the
// server itself is none — and is delivered all the same.
func TestSelfAddressedMessagesStayInProcess(t *testing.T) {
	const n = 4
	t.Run("Hash-2 add at a home", func(t *testing.T) {
		lc := newLoopCluster(t, n, nil, 0)
		cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7}
		lc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: []string{"a", "b", "c"}})
		lc.log.take()
		before := lc.localDeliveries()

		homes := HomesFor("v", cfg, n, nil)
		self, other := homes[0], homes[1]
		lc.mustAck(self, wire.Add{Key: "k", Config: cfg, Entry: "v"})
		lc.wantPeerCalls("add", peerCall{self, other, wire.KindStoreOne})
		before[self]++
		if got := lc.localDeliveries(); !reflect.DeepEqual(got, before) {
			t.Errorf("local deliveries %v, want %v", got, before)
		}
		for s, nd := range lc.nodes {
			if got, want := nd.LocalSet("k").Contains("v"), s == self || s == other; got != want {
				t.Errorf("server %d holds v: %v, want %v", s, got, want)
			}
		}
	})

	t.Run("Round-2 add and delete at the coordinator", func(t *testing.T) {
		lc := newLoopCluster(t, n, nil, 0)
		cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
		// Positions 0..6: v0 on {0,1}, v1 {1,2}, v2 {2,3}, v3 {3,0}, v4 {0,1}, ...
		entries := []string{"v0", "v1", "v2", "v3", "v4", "v5", "v6"}
		lc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: entries})
		lc.log.take()
		before := lc.localDeliveries()

		// Position 7 lives on servers 3 and 0: one store leaves server 0.
		lc.mustAck(0, wire.Add{Key: "k", Config: cfg, Entry: "v7"})
		lc.wantPeerCalls("add", peerCall{0, 3, wire.KindStoreOne})
		before[0]++
		if got := lc.localDeliveries(); !reflect.DeepEqual(got, before) {
			t.Errorf("after add: local deliveries %v, want %v", got, before)
		}

		// Deleting v3 (on 3 and 0) with the head at position 0 (v0, head
		// server 0): the remove goes to all four servers, both holders ask
		// the head server for the replacement, and once both have, the head
		// server retires v0's original copies on 0 and 1. Of those eight
		// messages server 0 addresses three to itself.
		lc.mustAck(0, wire.Delete{Key: "k", Config: cfg, Entry: "v3"})
		lc.wantPeerCalls("delete",
			peerCall{0, 1, wire.KindRoundRemove},
			peerCall{0, 2, wire.KindRoundRemove},
			peerCall{0, 3, wire.KindRoundRemove},
			peerCall{3, 0, wire.KindMigrate},
			peerCall{0, 1, wire.KindRemoveAt},
		)
		before[0] += 3
		if got := lc.localDeliveries(); !reflect.DeepEqual(got, before) {
			t.Errorf("after delete: local deliveries %v, want %v", got, before)
		}
		wantPos := []map[entry.Entry]int{
			{"v0": 3, "v4": 4, "v7": 7},
			{"v1": 1, "v4": 4, "v5": 5},
			{"v1": 1, "v2": 2, "v5": 5, "v6": 6},
			{"v2": 2, "v0": 3, "v6": 6, "v7": 7},
		}
		for s, nd := range lc.nodes {
			if got := nd.Positions("k"); !reflect.DeepEqual(got, wantPos[s]) {
				t.Errorf("server %d positions %v, want %v", s, got, wantPos[s])
			}
		}
		if head, tail := lc.nodes[0].Counters("k"); head != 1 || tail != 8 {
			t.Errorf("coordinator counters (%d, %d), want (1, 8)", head, tail)
		}
	})
}

// copyDir copies a node's data directory as it is on disk at this
// instant — what a kill would leave behind. It may run off the test's
// goroutine; a failed copy returns "".
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if info.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Errorf("copy %s: %v", src, err)
		return ""
	}
	return dst
}

// recoveredHolds reopens a copied data directory on a fresh node and
// reports whether the recovered state holds v under key.
func recoveredHolds(t *testing.T, dir string, policy store.SyncPolicy, key, v string) bool {
	t.Helper()
	nd := New(0, stats.NewRNG(1))
	d, err := nd.OpenDurability(dir, policy, 0, nil)
	if err != nil {
		t.Fatalf("recover %s: %v", dir, err)
	}
	defer d.WAL().Close()
	return nd.LocalSet(key).Contains(entry.Entry(v))
}

// TestSelfStoredEntryIsDurableBeforeTheAck: a coordinator that is one
// of an added entry's homes stores its copy by a message to itself, and
// its ack to the client covers that copy's WAL record as it covered it
// when the message crossed a socket. The coordinator's data directory
// is copied twice without stopping anything, as a kill would leave it:
// while the add is in progress (at its peer call, which precedes the
// store to itself) the entry is not there, and on receipt of the ack —
// no flush, no close — it is.
func TestSelfStoredEntryIsDurableBeforeTheAck(t *testing.T) {
	const n = 4
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7}
	for _, policy := range []store.SyncPolicy{store.SyncAlways, store.SyncBatch} {
		t.Run(policy.String(), func(t *testing.T) {
			dirs := nodeDirs(t, n)
			lc := newLoopCluster(t, n, dirs, policy)
			lc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: []string{"a", "b"}})

			// The coordinator is the entry's second home: the store on the
			// first home, a peer call, comes before the store on itself.
			homes := HomesFor("v", cfg, n, nil)
			first, self := homes[0], homes[1]
			var killedBeforeAck string
			lc.log.take()
			lc.log.onCall(func(c peerCall) {
				if c == (peerCall{self, first, wire.KindStoreOne}) {
					killedBeforeAck = copyDir(t, dirs[self])
				}
			})
			lc.mustAck(self, wire.Add{Key: "k", Config: cfg, Entry: "v"})
			killedAfterAck := copyDir(t, dirs[self])
			lc.log.onCall(nil)

			lc.wantPeerCalls("add", peerCall{self, first, wire.KindStoreOne})
			if killedBeforeAck == "" || killedAfterAck == "" {
				t.Fatal("no copy of the data directory at the add's peer call, or at its ack")
			}
			if recoveredHolds(t, killedBeforeAck, policy, "k", "v") {
				t.Error("killed before the ack: the coordinator recovered an entry it had not stored yet")
			}
			if !recoveredHolds(t, killedAfterAck, policy, "k", "v") {
				t.Error("killed after the ack: the coordinator's own copy of the acked entry is not in its log")
			}
		})
	}
}

// slotTable is a peer transport whose slots can be compacted while
// calls run: it delivers to whichever node holds a slot when the call
// arrives, and counts deliveries by (calling node, slot).
type slotTable struct {
	mu    sync.Mutex
	nodes []*Node
	calls map[[2]int]int // {the calling node's first id, slot} -> deliveries
}

type slotOrigin struct {
	t    *slotTable
	from int
}

func (o slotOrigin) NumServers() int {
	o.t.mu.Lock()
	defer o.t.mu.Unlock()
	return len(o.t.nodes)
}

func (o slotOrigin) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	o.t.mu.Lock()
	if server < 0 || server >= len(o.t.nodes) {
		o.t.mu.Unlock()
		return nil, fmt.Errorf("slot %d out of range", server)
	}
	nd := o.t.nodes[server]
	o.t.calls[[2]int{o.from, server}]++
	o.t.mu.Unlock()
	return nd.Handle(ctx, msg), nil
}

// compact removes slot leaving and then renumbers the nodes above it,
// in the two steps a host takes after a drain (cluster.Drain, plsd's
// host Compact).
func (t *slotTable) compact(leaving int) {
	t.mu.Lock()
	t.nodes = append(t.nodes[:leaving:leaving], t.nodes[leaving+1:]...)
	renumber := append([]*Node(nil), t.nodes[leaving:]...)
	t.mu.Unlock()
	for i, nd := range renumber {
		nd.SetID(leaving + i)
	}
}

// TestRenumberingUnderUpdates renumbers nodes (slot 0 compacted away,
// as after its drain) while Full-replication adds, whose broadcast
// reaches every server, the coordinator included, run at each of the
// three surviving nodes, every request counted against the node's id as
// under plsd. Run under -race it checks that the id has one discipline.
// Adds that overlap the compaction see slots and ids that disagree, as
// they do on a real host, and are not judged; every add that finished
// before it or began after it is acked and held by every survivor, and
// afterwards self-delivery follows the new ids exactly: one message kept
// in process, none sent to the slot the node has left.
func TestRenumberingUnderUpdates(t *testing.T) {
	const n, perPhase = 4, 100
	table := &slotTable{calls: make(map[[2]int]int)}
	nodes := make([]*Node, n)
	metrics := telemetry.NewNodeMetrics(telemetry.NewRegistry(), n)
	for i := range nodes {
		nodes[i] = New(i, stats.NewRNG(uint64(i)+1))
		nodes[i].Instrument(metrics)
		nodes[i].Attach(slotOrigin{t: table, from: i})
	}
	table.nodes = append([]*Node(nil), nodes...)
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.FullReplication}
	add := func(nd *Node, v string) bool {
		return nd.Handle(ctx, wire.Add{Key: "k", Config: cfg, Entry: v}).(wire.Ack).Err == ""
	}
	if ack := nodes[1].Handle(ctx, wire.Place{Key: "k", Config: cfg, Entries: []string{"base"}}).(wire.Ack); ack.Err != "" {
		t.Fatalf("place: %s", ack.Err)
	}

	survivors := nodes[1:]
	acked := make([][]bool, len(survivors)) // by add number
	done := make([]atomic.Int64, len(survivors))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for c, nd := range survivors {
		wg.Add(1)
		go func(c int, nd *Node) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				acked[c] = append(acked[c], add(nd, fmt.Sprintf("n%d-v%d", c, i)))
				done[c].Add(1)
			}
		}(c, nd)
	}
	// Every node adds before the compaction, across it and after it.
	progress := func(more int64) []int64 {
		at := make([]int64, len(done))
		for c := range done {
			for target := done[c].Load() + more; done[c].Load() < target; {
				time.Sleep(50 * time.Microsecond)
			}
			at[c] = done[c].Load()
		}
		return at
	}
	before := progress(perPhase) // adds below before[c] had finished
	table.compact(0)
	after := progress(0) // adds above after[c] had not begun
	progress(perPhase)
	stop.Store(true)
	wg.Wait()

	held := make([]*entry.Set, len(survivors))
	for s, nd := range survivors {
		held[s] = nd.LocalSet("k")
	}
	for c := range survivors {
		for i, ok := range acked[c] {
			if int64(i) >= before[c] && int64(i) <= after[c] {
				continue
			}
			v := entry.Entry(fmt.Sprintf("n%d-v%d", c, i))
			if !ok {
				t.Fatalf("add %s, clear of the compaction (adds %d to %d overlap it), failed", v, before[c], after[c])
			}
			for s := range survivors {
				if !held[s].Contains(v) {
					t.Fatalf("acked %s is missing on the node now in slot %d", v, s)
				}
			}
		}
	}

	// The node that was server 2 is server 1 now: of an add's three
	// messages it keeps the one for slot 1 and sends one each to slots 0
	// and 2.
	nd := nodes[2]
	if nd.ID() != 1 {
		t.Fatalf("node renumbered to %d, want 1", nd.ID())
	}
	table.calls = make(map[[2]int]int)
	local := metrics.LocalDeliveries.At(1).Value()
	if !add(nd, "after") {
		t.Fatal("add after renumbering failed")
	}
	if want := map[[2]int]int{{2, 0}: 1, {2, 2}: 1}; !reflect.DeepEqual(table.calls, want) {
		t.Errorf("deliveries {calling node, slot} after renumbering: %v, want %v", table.calls, want)
	}
	if got := metrics.LocalDeliveries.At(1).Value() - local; got != 1 {
		t.Errorf("%d local deliveries after renumbering, want 1", got)
	}
	for s, sv := range survivors {
		if !sv.LocalSet("k").Contains("after") {
			t.Errorf("slot %d misses the add made after renumbering", s)
		}
	}
}
