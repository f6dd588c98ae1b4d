package node

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
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

// hookHost is a node's membership host over the in-process network,
// as a cluster's is: it re-lists the node's view of the network as each
// view arrives and hands out a caller pinned to the new list. hook, when
// set, runs between the two: while the host compacts.
type hookHost struct {
	peers *transport.ChaosView
	hook  func(View)
}

func (h *hookHost) Apply(v View) transport.Caller {
	h.peers.SetAddrs(v.Addrs)
	if h.hook != nil {
		h.hook(v)
	}
	return h.peers.Pin()
}

// storeCounter counts the StoreOne messages the network delivers to a
// node, and holds the first one, once hold is set, until release closes.
type storeCounter struct {
	*Node
	stores  atomic.Int64
	hold    chan struct{} // receives once the held StoreOne has arrived
	release chan struct{}
}

func (c *storeCounter) Handle(ctx context.Context, msg wire.Message) wire.Message {
	if _, ok := msg.(wire.StoreOne); ok {
		if c.stores.Add(1) == 1 && c.hold != nil { // the first, once hold is set
			c.hold <- struct{}{}
			<-c.release
		}
	}
	return c.Node.Handle(ctx, msg)
}

// TestPeerCallPlannedBeforeADrainReachesItsServer: node 3 broadcasts a
// Full-replication add under the four-member view, and its first
// message, to server 0, is held there while slot 1 drains. Node 3's
// host compacts its member list as node 3 commits the drain, and the
// rest of the broadcast is delivered right then, between the host's
// re-listing and its handing out the post-drain caller. Each message
// still reaches the server the add planned it for: the leaver, server
// 2 and node 3 itself, which keeps its own in process, once. Afterwards
// node 3 is server 2, and its next add follows the new numbering: one
// message kept, one each to servers 0 and 1, none sent to itself.
func TestPeerCallPlannedBeforeADrainReachesItsServer(t *testing.T) {
	const n = 4
	ctx := context.Background()
	chaos := transport.NewChaos(n, stats.NewRNG(1))
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("sim://%d", i)
	}
	metrics := telemetry.NewNodeMetrics(telemetry.NewRegistry(), n)
	nodes := make([]*storeCounter, n)
	hosts := make([]*hookHost, n)
	for i := range nodes {
		nodes[i] = &storeCounter{Node: New(i, stats.NewRNG(uint64(i)+1))}
		nodes[i].Instrument(metrics)
		hosts[i] = &hookHost{peers: chaos.View(addrs[i], addrs)}
		nodes[i].SetHost(hosts[i], View{Addrs: addrs, Self: i})
		chaos.Bind(i, nodes[i])
	}
	cfg := wire.Config{Scheme: wire.FullReplication}
	if ack := nodes[3].Handle(ctx, wire.Place{Key: "k", Config: cfg, Entries: []string{"base"}}); ack != (wire.Ack{}) {
		t.Fatalf("place: %v", ack)
	}
	// stores returns each node's StoreOne deliveries since the last call.
	var last [n]int64
	stores := func() (got [n]int64) {
		for i, c := range nodes {
			now := c.stores.Load()
			got[i], last[i] = now-last[i], now
		}
		return got
	}

	held := nodes[0]
	held.hold, held.release = make(chan struct{}), make(chan struct{})
	added := make(chan wire.Message, 1)
	go func() { added <- nodes[3].Handle(ctx, wire.Add{Key: "k", Config: cfg, Entry: "v"}) }()
	<-held.hold
	local := metrics.LocalDeliveries.At(3).Value()
	hosts[3].hook = func(v View) {
		if v.Epoch == 1 {
			close(held.release)
			if ack := <-added; ack != (wire.Ack{}) {
				t.Errorf("add across the drain: %v", ack)
			}
		}
	}
	drain := wire.MembershipUpdate{Epoch: 1, Leaving: 1, Addrs: []string{addrs[0], addrs[2], addrs[3]}}
	for _, s := range []int{1, 0, 2, 3} { // the leaver first, the coordinator last
		if ack := nodes[s].Handle(ctx, drain); ack != (wire.Ack{}) {
			t.Fatalf("member %d: drain: %v", s, ack)
		}
	}
	if got, want := stores(), [n]int64{1, 1, 1, 0}; got != want {
		t.Errorf("the add's messages over the network, by node: %v, want %v", got, want)
	}
	if got := metrics.LocalDeliveries.At(3).Value() - local; got != 1 {
		t.Errorf("node 3 kept %d of the add's messages in process, want 1", got)
	}

	if got := nodes[3].ID(); got != 2 {
		t.Fatalf("node 3 ranks %d after the drain, want 2", got)
	}
	local = metrics.LocalDeliveries.At(2).Value()
	if ack := nodes[3].Handle(ctx, wire.Add{Key: "k", Config: cfg, Entry: "after"}); ack != (wire.Ack{}) {
		t.Fatalf("add after the drain: %v", ack)
	}
	if got, want := stores(), [n]int64{1, 0, 1, 0}; got != want {
		t.Errorf("after the drain, the add's messages over the network, by node: %v, want %v", got, want)
	}
	if got := metrics.LocalDeliveries.At(2).Value() - local; got != 1 {
		t.Errorf("%d local deliveries at rank 2 after the drain, want 1", got)
	}
	for _, s := range []int{0, 2, 3} {
		if set := nodes[s].LocalSet("k"); !set.Contains("v") || !set.Contains("after") {
			t.Errorf("node %d holds %v, want v and after", s, set.Members())
		}
	}
}
