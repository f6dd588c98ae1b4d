package cluster_test

import (
	"context"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/wire"
)

// listen returns a loopback listener that t closes, for a member to
// serve on.
func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// newMember starts member 0 of addrs, serving on ln, that t closes.
func newMember(t *testing.T, ln net.Listener, addrs []string, o cluster.MemberOptions) *cluster.Member {
	t.Helper()
	o.Listener = ln
	m, err := cluster.NewMember(0, stats.NewRNG(1), addrs, "", o)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close(context.Background()) })
	return m
}

// TestPeerCountersRecordEveryAttempt: with -peer-retries 3 a store the
// member fans out to a peer nobody listens on is three attempts, and
// peer.calls, peer.errors, peer.dial_errors and the selector's
// scoreboard each see three — one per attempt, as
// TransportMetrics.Calls documents — not one for the call that wrapped
// them.
func TestPeerCountersRecordEveryAttempt(t *testing.T) {
	ln, dead := listen(t), listen(t)
	addrs := []string{ln.Addr().String(), dead.Addr().String()}
	dead.Close()
	m := newMember(t, ln, addrs, cluster.MemberOptions{PeerTimeout: 200 * time.Millisecond, PeerRetries: 3})

	place := wire.Place{Key: "k", Config: wire.Config{Scheme: wire.FullReplication}, Entries: []string{"a"}}
	if ack, _ := m.Node.Handle(context.Background(), place).(wire.Ack); ack.Err != "" {
		t.Fatalf("place: %s", ack.Err)
	}
	per := m.Registry.Snapshot().PerServer
	for _, name := range []string{"peer.calls", "peer.errors", "peer.dial_errors"} {
		if got := per[name][1]; got != 3 {
			t.Errorf("%s = %d, want 3 (one per attempt)", name, got)
		}
	}
	if got := m.Selector.Health()[1].ConsecFails; got != 3 {
		t.Errorf("selector saw %d consecutive failures, want 3", got)
	}
}

// TestSelectorHealthGaugesFollowMembership: the selector.* health
// vectors take their length from the selector at each snapshot, so a
// joiner shows once the member's host has applied the view naming it.
func TestSelectorHealthGaugesFollowMembership(t *testing.T) {
	ln := listen(t)
	addrs := []string{ln.Addr().String(), "127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}
	m := newMember(t, ln, addrs[:3], cluster.MemberOptions{})

	m.Apply(node.View{Epoch: 1, Addrs: addrs})
	if got := m.Peers.Addrs(); !slices.Equal(got, addrs) {
		t.Errorf("after the join the member's client lists %v, want %v", got, addrs)
	}
	per := m.Registry.Snapshot().PerServer
	for _, name := range []string{"selector.consec_failures", "selector.open", "selector.ewma_ns"} {
		if got := len(per[name]); got != 4 {
			t.Errorf("%s has %d values after a join to 4 servers, want 4", name, got)
		}
	}
}

// TestWiredMembersFollowMembership: after a Join and a Drain each member
// of a wired cluster has resized its own view, as a daemon does: its
// client lists the cluster's addresses and its selector covers every
// server. A partition set afterwards severs the peer calls of a member
// the drain renumbered by its new slot.
func TestWiredMembersFollowMembership(t *testing.T) {
	cl := newWired(t, 3, stats.NewRNG(5))
	placeFull(t, cl, 4)
	ctx := context.Background()
	if _, err := cl.Join(ctx, stats.NewRNG(6)); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Drain(ctx, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cl.N(); i++ {
		m := cl.Member(i)
		if got := m.Peers.Addrs(); !slices.Equal(got, cl.Addrs()) {
			t.Errorf("member %d's client lists %v, the cluster %v", i, got, cl.Addrs())
		}
		if got := len(m.Selector.Health()); got != cl.N() {
			t.Errorf("member %d's selector covers %d servers, want %d", i, got, cl.N())
		}
		if got := m.Node.ID(); got != i {
			t.Errorf("member %d's node has id %d", i, got)
		}
	}

	// Slot 1 was slot 2 before the drain; its store fans out to 0 and 2.
	cl.Chaos().Partition(1, 2)
	place := wire.Place{Key: "p", Config: wire.Config{Scheme: wire.FullReplication}, Entries: []string{"a", "b"}}
	if _, err := cl.Caller().Call(ctx, 1, place); err != nil {
		t.Fatal(err)
	}
	for s, want := range []int{2, 2, 0} {
		if got := cl.Node(s).LocalLen("p"); got != want {
			t.Errorf("server %d holds %d entries of a place slot 1 fanned out across a 1–2 partition, want %d", s, got, want)
		}
	}
}

// TestWiredReplaceServesAtTheDeadAddress: a wired Replace starts the new
// member at the dead one's address, and the peers that had connections
// to the dead server reach the new one on their next call.
func TestWiredReplaceServesAtTheDeadAddress(t *testing.T) {
	cl := newWired(t, 3, stats.NewRNG(7))
	placeFull(t, cl, 3) // member 0 now holds a connection to server 1
	addr := cl.Member(1).Addr
	cl.Replace(1, stats.NewRNG(8))
	if got := cl.Member(1).Addr; got != addr {
		t.Fatalf("the new member listens on %s, the dead one on %s", got, addr)
	}
	placeFull(t, cl, 5)
	if got := cl.Node(1).LocalLen("k"); got != 5 {
		t.Errorf("the new member holds %d of the 5 entries member 0 fanned out, want 5", got)
	}
	if err := cl.Close(); err != nil {
		t.Error(err)
	}
}
