package transport

import (
	"context"
	"errors"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// scriptedPeer is the server end of a client's one connection, played by
// the test goroutine: it reads request frames and answers the ids it is
// given, all in one write, when the test says so.
type scriptedPeer struct {
	t    *testing.T
	conn net.Conn
	fr   *frameReader
}

// newScriptedPeer returns a client with one connection to a loopback
// scripted peer, dialed and warmed by one answered Ping.
func newScriptedPeer(t *testing.T, opts ...ClientOption) (*Client, *scriptedPeer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer ln.Close()
	client := NewClient([]string{ln.Addr().String()}, opts...)
	t.Cleanup(func() { client.Close() })
	primed := make(chan error, 1)
	go func() {
		_, err := client.Call(context.Background(), 0, wire.Ping{})
		primed <- err
	}()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	p := &scriptedPeer{t: t, conn: conn, fr: newFrameReader(conn)}
	p.reply(p.read(1))
	if err := <-primed; err != nil {
		t.Fatalf("priming Ping: %v", err)
	}
	return client, p
}

// read returns the ids of the next n request frames.
func (p *scriptedPeer) read(n int) []uint64 {
	p.t.Helper()
	return readIDs(p.t, p.conn, p.fr, n)
}

// reply answers every id with an Ack, in one write.
func (p *scriptedPeer) reply(ids []uint64) {
	p.t.Helper()
	var buf []byte
	for _, id := range ids {
		buf = appendReply(buf, id, wire.Ack{})
	}
	if _, err := p.conn.Write(buf); err != nil {
		p.t.Fatalf("reply: %v", err)
	}
}

// TestWokenCallersShareOneWrite: k callers get their replies from one
// server write, and each then sends its next request to that server.
// Their requests go out in one client write, whatever the kind: a
// Lookup as much as an Add, which the server detaches only if it has to
// wait on a peer. On one P the woken callers run one after another, so
// only the yield before the write lets them meet in it. Each of three
// rounds is measured: the runtime's fairness check may, about one
// schedule in 61, run the yielding caller before the last of the
// others, so a kind needs one fully shared round.
func TestWokenCallersShareOneWrite(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const k, rounds = 4, 3
	for _, tc := range []struct {
		name string
		msg  wire.Message
	}{
		{"Lookup", wire.Lookup{Key: "k", T: 1}},
		{"Add", wire.Add{Key: "k", Entry: "v"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tm := newTransportMetrics(1)
			client, peer := newScriptedPeer(t, WithClientMetrics(tm))
			var wg sync.WaitGroup
			for i := 0; i < k; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r <= rounds; r++ {
						if _, err := client.Call(context.Background(), 0, tc.msg); err != nil {
							t.Errorf("call: %v", err)
							return
						}
					}
				}()
			}
			ids := peer.read(k)
			var writes []int64
			for r := 0; r < rounds; r++ {
				frames0, writes0 := tm.Frames.Value(), tm.Writes.Value()
				peer.reply(ids)
				ids = peer.read(k)
				if frames := tm.Frames.Value() - frames0; frames != k {
					t.Fatalf("round %d: %d frames written, want %d", r, frames, k)
				}
				writes = append(writes, tm.Writes.Value()-writes0)
			}
			peer.reply(ids)
			wg.Wait()
			if slices.Min(writes) != 1 {
				t.Errorf("%d woken %ss took %v writes per round, want 1 in at least one round", k, tc.name, writes)
			}
		})
	}
}

// claimedCtx is a caller's context for the one place Call reads it, the
// select its reply races in: Done waits until a reply has been claimed,
// then for wait, so that the reply and the cancellation (done closed)
// or the timer (done nil, wait past the timeout) are ready together and
// select may take either arm.
type claimedCtx struct {
	context.Context
	c    *Client
	wait time.Duration
	done chan struct{}
}

func (x claimedCtx) Done() <-chan struct{} {
	for deadline := time.Now().Add(5 * time.Second); x.c.woken.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Microsecond)
	}
	time.Sleep(x.wait)
	return x.done
}

func (x claimedCtx) Err() error {
	if x.done != nil {
		return context.Canceled
	}
	return nil
}

// brokenWrites is a connection whose every write fails.
type brokenWrites struct{ net.Conn }

func (brokenWrites) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// TestWokenCountSettles: the count of woken callers is back at 0 once
// every call has returned, however each call ended. A leaked count would
// make every later lookup yield.
func TestWokenCountSettles(t *testing.T) {
	settled := func(t *testing.T, c *Client) {
		t.Helper()
		waitFor(t, "the woken count to settle at 0", func() bool { return c.woken.Load() == 0 })
	}
	// call runs one Lookup on its own goroutine; the channel gets its error.
	call := func(c Caller, ctx context.Context) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := c.Call(ctx, 0, wire.Lookup{Key: "k", T: 1})
			done <- err
		}()
		return done
	}

	t.Run("reply after timeout", func(t *testing.T) {
		client, peer := newScriptedPeer(t, WithTimeout(100*time.Millisecond))
		done := call(client, context.Background())
		late := peer.read(1)
		if err := <-done; !errors.Is(err, ErrRequestTimeout) {
			t.Fatalf("call = %v, want a request timeout", err)
		}
		peer.reply(late)
		next := call(client, context.Background())
		peer.reply(peer.read(1)) // answered behind the late reply, so read after it
		if err := <-next; err != nil {
			t.Fatalf("call behind the late reply: %v", err)
		}
		if n := client.woken.Load(); n != 0 {
			t.Fatalf("woken = %d after a late reply", n)
		}
	})

	// A claimed reply racing the timer or a cancellation: select takes
	// either arm, so each is run often enough to see both.
	for _, tc := range []struct {
		name string
		ctx  func(*Client) claimedCtx
	}{
		{"claimed reply beside a cancellation", func(c *Client) claimedCtx {
			done := make(chan struct{})
			close(done)
			return claimedCtx{Context: context.Background(), c: c, done: done}
		}},
		{"claimed reply beside the timeout", func(c *Client) claimedCtx {
			return claimedCtx{Context: context.Background(), c: c, wait: 150 * time.Millisecond}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			client, peer := newScriptedPeer(t, WithTimeout(100*time.Millisecond))
			for i := 0; i < 8; i++ {
				done := call(client, tc.ctx(client))
				peer.reply(peer.read(1))
				if err := <-done; err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, ErrRequestTimeout) {
					t.Fatalf("call %d = %v", i, err)
				}
				if n := client.woken.Load(); n != 0 {
					t.Fatalf("call %d: woken = %d after it returned", i, n)
				}
			}
		})
	}

	t.Run("connection failed with calls pending", func(t *testing.T) {
		const k = 4
		client, peer := newScriptedPeer(t)
		dones := make([]chan error, k)
		for i := range dones {
			dones[i] = call(client, context.Background())
		}
		peer.read(k)
		peer.conn.Close()
		for _, done := range dones {
			if err := <-done; !errors.Is(err, ErrServerDown) {
				t.Fatalf("call on a failed connection = %v, want ErrServerDown", err)
			}
		}
		settled(t, client)
	})

	t.Run("own write fails", func(t *testing.T) {
		client := NewClient([]string{"pipe:unused"}, WithTimeout(time.Second))
		defer client.Close()
		near, far := net.Pipe()
		defer far.Close()
		client.servers()[0].mc = client.newMuxConn(brokenWrites{near})
		if err := <-call(client, context.Background()); !errors.Is(err, ErrServerDown) {
			t.Fatalf("call on a closed pipe = %v, want ErrServerDown", err)
		}
		settled(t, client)
	})

	t.Run("hedged loser finishes late", func(t *testing.T) {
		client, peer := newScriptedPeer(t)
		r := NewRetry(client, RetryPolicy{Attempts: 1, HedgeAfter: 20 * time.Millisecond}, stats.NewRNG(1), nil)
		done := call(r, context.Background())
		first := peer.read(1)
		peer.reply(peer.read(1)) // the hedge wins
		if err := <-done; err != nil {
			t.Fatalf("hedged call: %v", err)
		}
		peer.reply(first)
		next := call(client, context.Background())
		peer.reply(peer.read(1))
		if err := <-next; err != nil {
			t.Fatalf("call behind the loser's reply: %v", err)
		}
		settled(t, client)
	})
}

// TestCallRacesMembershipChanges: calls read the published server list
// while SetAddrs replaces it, and NumServers and Addrs read it too; a
// client pinned before a change keeps its numbering, and a call it
// makes to a server the change dropped fails instead of dialing. Run
// under -race.
func TestCallRacesMembershipChanges(t *testing.T) {
	addr, _ := startServer(t)
	two, three := []string{addr, addr}, []string{addr, addr, addr}
	client := NewClient(two)
	defer client.Close()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Server 2 comes and goes: out of range, or closed under the call.
				_, err := client.Call(context.Background(), i%3, wire.Lookup{Key: "k", T: 1})
				if err != nil && !errors.Is(err, ErrServerDown) && !strings.Contains(err.Error(), "out of range") {
					t.Errorf("call to server %d: %v", i%3, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		client.SetAddrs(three)
		if n, addrs := client.NumServers(), client.Addrs(); n != 3 || len(addrs) != 3 {
			t.Fatalf("NumServers %d, Addrs %v after an add", n, addrs)
		}
		pinned := client.Pin()
		client.SetAddrs(two)
		if n := pinned.NumServers(); n != 3 {
			t.Fatalf("pinned client lists %d servers after the list shrank, want its 3", n)
		}
		if _, err := pinned.Call(context.Background(), 2, wire.Lookup{Key: "k", T: 1}); !errors.Is(err, ErrServerDown) {
			t.Fatalf("pinned call to the dropped server: %v, want ErrServerDown", err)
		}
	}
	close(stop)
	wg.Wait()
	if got := client.Addrs(); len(got) != 2 || got[0] != addr || got[1] != addr {
		t.Fatalf("Addrs = %v, want the two servers it started with", got)
	}
}

// BenchmarkMuxConcurrentLookups: 4 × GOMAXPROCS closed-loop callers
// share one Client over four loopback Servers that answer Lookup inline.
// Besides time per lookup it reports the frames each write syscall
// carries on the calling and the serving side, and write syscalls (both
// sides) per lookup.
func BenchmarkMuxConcurrentLookups(b *testing.B) {
	const servers = 4
	reg := telemetry.NewRegistry()
	sm := telemetry.NewServerMetrics(reg, "server")
	addrs := make([]string, servers)
	for i := range addrs {
		srv := NewServer(lookupEcho{})
		srv.Instrument(sm)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			b.Fatalf("Listen: %v", err)
		}
		defer srv.Close()
		addrs[i] = addr
	}
	cm := telemetry.NewTransportMetrics(reg, "client", servers)
	client := NewClient(addrs, WithClientMetrics(cm))
	defer client.Close()
	ctx := context.Background()
	lookup := wire.Lookup{Key: "k", T: 1}
	for i := 0; i < servers; i++ { // dial every connection
		if _, err := client.Call(ctx, i, lookup); err != nil {
			b.Fatalf("warm-up call: %v", err)
		}
	}
	cf, cw, sf, sw := cm.Frames.Value(), cm.Writes.Value(), sm.Frames.Value(), sm.Writes.Value()
	var callers atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(callers.Add(1)); pb.Next(); i++ {
			if _, err := client.Call(ctx, i%servers, lookup); err != nil {
				b.Errorf("Call: %v", err)
				return
			}
		}
	})
	b.StopTimer()
	cf, cw = cm.Frames.Value()-cf, cm.Writes.Value()-cw
	sf, sw = sm.Frames.Value()-sf, sm.Writes.Value()-sw
	b.ReportMetric(float64(cf)/float64(cw), "client_frames/write")
	b.ReportMetric(float64(sf)/float64(sw), "server_frames/write")
	b.ReportMetric(float64(cw+sw)/float64(b.N), "writes/op")
}
