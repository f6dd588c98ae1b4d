package node

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// everyKind returns one message of every kind the codec knows, found by
// asking the decoder: a kind it knows decodes from the kind byte and
// some number of zero bytes (empty strings, empty lists, zeros). A kind
// added to the wire later is therefore in the list without anyone
// remembering to put it there.
func everyKind(t *testing.T) []wire.Message {
	t.Helper()
	var msgs []wire.Message
	for k := 0; k < 256; k++ {
		if _, err := wire.Decode([]byte{byte(k)}); errors.Is(err, wire.ErrUnknown) {
			continue
		}
		var msg wire.Message
		for zeros := 0; zeros < 64 && msg == nil; zeros++ {
			msg, _ = wire.Decode(append([]byte{byte(k)}, make([]byte, zeros)...))
		}
		if msg == nil {
			t.Fatalf("kind %d: no all-zero encoding of up to 64 bytes decodes; give this test a sample", k)
		}
		msgs = append(msgs, msg)
	}
	// Five kind numbers below KindStoreBatches are retired (reserved).
	if len(msgs) < int(wire.KindStoreBatches)-5 {
		t.Fatalf("found %d kinds, the wire has at least %d", len(msgs), wire.KindStoreBatches-5)
	}
	return msgs
}

// blockingPeers is the peer caller of server 0 in a view of two
// servers, so every call it gets is to server 1: it reports itself on
// called and waits for release, then fails as a down server would. A
// handler that makes one is waiting on another server.
type blockingPeers struct {
	called  chan struct{}
	release chan struct{}
}

func newBlockingPeers() *blockingPeers {
	return &blockingPeers{called: make(chan struct{}, 1), release: make(chan struct{})}
}

func (p *blockingPeers) Call(ctx context.Context, _ int, _ wire.Message) (wire.Message, error) {
	select {
	case p.called <- struct{}{}:
	default:
	}
	select {
	case <-p.release:
		return nil, transport.ErrServerDown
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (*blockingPeers) NumServers() int { return 2 }

// twoMembers is a membership host for the two servers blockingPeers
// stands for, a:1 and b:1 (twoAddrs): each view's caller is peers.
// Apply, for a committed view when growing is set, reports itself there
// and waits for release.
type twoMembers struct {
	peers   transport.Caller
	growing chan struct{}
	release chan struct{}
}

var twoAddrs = View{Addrs: []string{"a:1", "b:1"}}

func (h twoMembers) Apply(v View) transport.Caller {
	if h.growing != nil && v.Epoch > 0 {
		h.growing <- struct{}{}
		<-h.release
	}
	return h.peers
}

// serveNode serves h over loopback and returns a client of it, with a
// short timeout, and the server's request counts.
func serveNode(t *testing.T, h transport.Handler) (*transport.Client, *telemetry.TransportMetrics) {
	t.Helper()
	m := telemetry.NewServerMetrics(telemetry.NewRegistry(), "server")
	srv := transport.NewServer(h)
	srv.Instrument(m)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	client := transport.NewClient([]string{addr}, transport.WithTimeout(2*time.Second))
	t.Cleanup(func() { client.Close() })
	return client, m
}

// callAsync sends msg on its own goroutine; the channel gets the reply.
func callAsync(client transport.Caller, msg wire.Message) chan wire.Message {
	done := make(chan wire.Message, 1)
	go func() {
		reply, err := client.Call(context.Background(), 0, msg)
		if err != nil {
			reply = wire.Ack{Err: err.Error()}
		}
		done <- reply
	}()
	return done
}

// sendBehind sends msg through client once nd has begun to handle a
// request more than the handled it had — the one sent before, whose
// frame is then ahead of msg's on the connection — and returns the
// call's error.
func sendBehind(t *testing.T, client transport.Caller, nd *Node, handled int64, msg wire.Message) error {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); nd.Handled() <= handled; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the first request never reached the node")
		}
	}
	_, err := client.Call(context.Background(), 0, msg)
	return err
}

// TestOnlyLocalKindsRunOnTheReader: a request runs on the goroutine
// that read it until it is about to wait on a peer. For every wire kind,
// sent to a node whose peer caller blocks, either the handler calls a
// peer — and a Ping sent behind it on the same connection is answered
// meanwhile, the request counting as detached — or it answers without
// one and counts as inline. Updates that fan out and membership changes
// call peers; a holder's StoreOne, RemoveOne and RemoveAt, and a
// RoundRemove at a non-holder, are answered inline. A kind added to the
// wire later is tested without anyone remembering to add it here.
func TestOnlyLocalKindsRunOnTheReader(t *testing.T) {
	fixed := wire.Config{Scheme: wire.Fixed, X: 2}
	round := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	place := wire.Place{Key: "p", Config: fixed, Entries: []string{"a", "b"}}
	add := wire.Add{Key: "a", Config: fixed, Entry: "x"}
	samples := map[wire.Kind]wire.Message{
		wire.KindPlace:       place,
		wire.KindPlaceBatch:  wire.PlaceBatch{Items: []wire.Place{place}},
		wire.KindAdd:         add,
		wire.KindAddBatch:    wire.AddBatch{Items: []wire.Add{add}},
		wire.KindDelete:      wire.Delete{Key: "k", Config: fixed, Entry: "v"},
		wire.KindJoin:        wire.Join{Addr: "c:1"},
		wire.KindLeave:       wire.Leave{Server: 1},
		wire.KindStoreOne:    wire.StoreOne{Key: "k", Config: fixed, Entry: "y"},
		wire.KindRemoveOne:   wire.RemoveOne{Key: "k", Config: fixed, Entry: "v"},
		wire.KindRemoveAt:    wire.RemoveAt{Key: "rk", Entry: "r1", Pos: 1},
		wire.KindRoundRemove: wire.RoundRemove{Key: "rk", Entry: "absent", HeadServer: 1},
	}
	callsPeer := map[wire.Kind]bool{
		wire.KindPlace: true, wire.KindPlaceBatch: true, wire.KindAdd: true, wire.KindAddBatch: true,
		wire.KindDelete: true, wire.KindJoin: true, wire.KindLeave: true,
	}
	for _, msg := range everyKind(t) {
		if sample, ok := samples[msg.Kind()]; ok {
			msg = sample
		}
		t.Run(fmt.Sprintf("%T", msg), func(t *testing.T) {
			nd := New(0, stats.NewRNG(1))
			peers := newBlockingPeers()
			nd.SetHost(twoMembers{peers: peers}, twoAddrs)
			// The node holds the entries the samples remove.
			for _, held := range []wire.Message{
				wire.StoreBatch{Key: "k", Config: fixed, Entries: []string{"v", "w"}},
				wire.StoreBatch{Key: "rk", Config: round, Entries: []string{"r0", "r1", "r2"}},
			} {
				if ack := nd.Handle(context.Background(), held); ack != (wire.Ack{}) {
					t.Fatalf("%T: %v", held, ack)
				}
			}
			client, m := serveNode(t, nd)
			done := callAsync(client, msg)
			select {
			case <-peers.called:
				if !callsPeer[msg.Kind()] {
					t.Errorf("%T called a peer", msg)
				}
				if _, err := client.Call(context.Background(), 0, wire.Ping{}); err != nil {
					t.Errorf("Ping behind a %T waiting on a peer: %v", msg, err)
				}
				close(peers.release)
				<-done
				if m.Detached.Value() != 1 || m.Inline.Value() != 1 {
					t.Errorf("detached %d inline %d, want the %T detached and the Ping inline",
						m.Detached.Value(), m.Inline.Value(), msg)
				}
			case <-done:
				close(peers.release)
				if callsPeer[msg.Kind()] {
					t.Errorf("%T answered without calling a peer", msg)
				}
				if m.Detached.Value() != 0 || m.Inline.Value() != 1 {
					t.Errorf("detached %d inline %d, want the %T inline", m.Detached.Value(), m.Inline.Value(), msg)
				}
			}
		})
	}
}

// TestJoinWaitingToCoordinateLeavesTheReader: a Join to a node that is
// coordinating another change waits for the node's coordinating lock,
// held across peer calls, off the connection's reader: a Ping sent
// behind it on the same connection is answered meanwhile.
func TestJoinWaitingToCoordinateLeavesTheReader(t *testing.T) {
	nd := New(0, stats.NewRNG(1))
	peers := newBlockingPeers()
	nd.SetHost(twoMembers{peers: peers}, twoAddrs)
	client, _ := serveNode(t, nd)

	first := make(chan wire.Message, 1)
	go func() { first <- nd.Handle(context.Background(), wire.Join{Addr: "c:1"}) }()
	<-peers.called // the first join holds the lock, committing to server 1
	handled := nd.Handled()
	second := callAsync(client, wire.Join{Addr: "d:1"})
	if err := sendBehind(t, client, nd, handled, wire.Ping{}); err != nil {
		t.Errorf("Ping behind a Join waiting to coordinate: %v", err)
	}
	close(peers.release)
	<-first
	<-second
}

// TestRoundUpdateWaitingForItsKeyLeavesTheReader: a Round-y update that
// reaches its coordinator while another update of the key holds the
// key's update lock across a peer call waits for that lock off the
// connection's reader: a Ping sent behind it is answered meanwhile.
func TestRoundUpdateWaitingForItsKeyLeavesTheReader(t *testing.T) {
	nd := New(0, stats.NewRNG(1))
	peers := newBlockingPeers()
	nd.SetHost(twoMembers{peers: peers}, twoAddrs)
	round := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	if ack := nd.Handle(context.Background(), wire.StoreBatch{Key: "rk", Config: round, Entries: []string{"r0", "r1"}}); ack != (wire.Ack{}) {
		t.Fatalf("StoreBatch: %v", ack)
	}
	client, _ := serveNode(t, nd)

	first := make(chan wire.Message, 1)
	go func() { first <- nd.Handle(context.Background(), wire.Add{Key: "rk", Config: round, Entry: "a"}) }()
	<-peers.called // the add holds the key's update lock, storing at server 1
	handled := nd.Handled()
	second := callAsync(client, wire.Delete{Key: "rk", Config: round, Entry: "r0"})
	if err := sendBehind(t, client, nd, handled, wire.Ping{}); err != nil {
		t.Errorf("Ping behind a Delete waiting for its key: %v", err)
	}
	close(peers.release)
	<-first
	<-second
}

// TestReplayedUpdateWaitsOffTheReader: a MembershipUpdate a node is
// still committing, sent to it again, waits for that commit's sweep off
// the connection's reader: a Ping sent behind it on the same connection
// is answered meanwhile, and the replay acks once the sweep is done.
func TestReplayedUpdateWaitsOffTheReader(t *testing.T) {
	nd := New(0, stats.NewRNG(1))
	host := twoMembers{peers: newBlockingPeers(), growing: make(chan struct{}), release: make(chan struct{})}
	nd.SetHost(host, twoAddrs)
	client, _ := serveNode(t, nd)

	u := wire.MembershipUpdate{Epoch: 1, Leaving: -1, Addrs: []string{"a:1", "b:1", "c:1"}}
	first := make(chan wire.Message, 1)
	go func() { first <- nd.Handle(context.Background(), u) }()
	<-host.growing // committed, its sweep not begun
	handled := nd.Handled()
	replay := callAsync(client, u)
	if err := sendBehind(t, client, nd, handled, wire.Ping{}); err != nil {
		t.Errorf("Ping behind a replayed update: %v", err)
	}
	close(host.release)
	if ack := <-first; ack != (wire.Ack{}) {
		t.Errorf("update: %v", ack)
	}
	if ack := <-replay; ack != (wire.Ack{}) {
		t.Errorf("replayed update: %v", ack)
	}
}

// TestLookupBehindADurableStoreOneWaitsForItsCommit: under SyncBatch a
// StoreOne's handler runs the log's group commit itself, on the
// connection's reader, since it waits on no peer. A Lookup pipelined
// behind it on the same connection is read once that commit lands, and
// sees the stored entry; both count as inline.
func TestLookupBehindADurableStoreOneWaitsForItsCommit(t *testing.T) {
	nd := New(0, stats.NewRNG(1))
	nd.Attach(newBlockingPeers())
	d, err := nd.OpenDurability(t.TempDir(), store.SyncBatch, 0, nil)
	if err != nil {
		t.Fatalf("OpenDurability: %v", err)
	}
	defer d.Close()
	committing, gate := make(chan struct{}, 1), make(chan struct{})
	d.WAL().SetCommitHook(func() {
		select {
		case committing <- struct{}{}:
		default:
		}
		<-gate
	})
	client, m := serveNode(t, nd)

	stored := callAsync(client, wire.StoreOne{Key: "k", Config: wire.Config{Scheme: wire.Fixed, X: 1}, Entry: "v"})
	<-committing
	looked := callAsync(client, wire.Lookup{Key: "k", T: 1})
	select {
	case reply := <-looked:
		t.Errorf("Lookup answered while the StoreOne ahead of it was committing: %v", reply)
		looked <- reply
	case <-time.After(100 * time.Millisecond):
	}
	close(gate)
	if ack := <-stored; ack != (wire.Ack{}) {
		t.Fatalf("StoreOne: %v", ack)
	}
	if reply, ok := (<-looked).(wire.LookupReply); !ok || len(reply.Entries) != 1 || reply.Entries[0] != "v" {
		t.Fatalf("Lookup behind the StoreOne: %v, want [v]", reply)
	}
	if m.Detached.Value() != 0 || m.Inline.Value() != 2 {
		t.Errorf("detached %d inline %d, want both inline", m.Detached.Value(), m.Inline.Value())
	}
}

// TestNestedPeerCallsOverOneConnPerPeer: the Round-Robin delete has the
// coordinator call every server, itself included, and the holders call
// the head server back for a replacement while the coordinator's own
// handler is still open — here with one mux connection per peer, so a
// handler that waited on a peer without detaching would sit on the
// reader its reply needs.
func TestNestedPeerCallsOverOneConnPerPeer(t *testing.T) {
	const n = 3
	lc := newLoopCluster(t, n, nil, 0)
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	entries := []string{"v1", "v2", "v3", "v4", "v5", "v6", "v7"}
	lc.mustAck(0, wire.Place{Key: "k", Config: cfg, Entries: entries})
	// Enough deletes for the head position to pass every server.
	const deletes = n + 1
	for _, v := range entries[:deletes] {
		lc.mustAck(0, wire.Delete{Key: "k", Config: cfg, Entry: v})
	}
	for s := 0; s < n; s++ {
		reply, err := lc.client.Call(context.Background(), s, wire.Dump{Key: "k"})
		if err != nil {
			t.Fatalf("Dump %d: %v", s, err)
		}
		for _, e := range reply.(wire.DumpReply).Entries {
			for _, gone := range entries[:deletes] {
				if e == gone {
					t.Errorf("server %d still holds deleted %s", s, gone)
				}
			}
		}
	}
}
