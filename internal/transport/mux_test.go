package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestMuxStress hammers the multiplexed client from 64 goroutines
// across 4 servers while one server drains mid-run: every call must
// either succeed with the reply for its own request (no cross-wiring of
// ids) or fail with ErrServerDown on the draining server. Run under
// -race this is the concurrency gate for the demux maps, the callers'
// shared write buffer, and the server's inline dispatch.
func TestMuxStress(t *testing.T) {
	const (
		peers      = 4
		goroutines = 64
		callsEach  = 50
		drainPeer  = 2
	)
	addrs := make([]string, peers)
	servers := make([]*Server, peers)
	for i := range servers {
		servers[i] = NewServer(lookupEcho{})
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen %d: %v", i, err)
		}
		addrs[i] = addr
		defer servers[i].Close()
	}
	client := NewClient(addrs, WithTimeout(5*time.Second))
	defer client.Close()

	var drained atomic.Bool
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < callsEach; i++ {
				server := (g + i) % peers
				key := fmt.Sprintf("g%d-i%d", g, i)
				reply, err := client.Call(ctx, server, wire.Lookup{Key: key, T: 1})
				if err != nil {
					if server == drainPeer && errors.Is(err, ErrServerDown) {
						continue // the draining server may refuse
					}
					errCh <- fmt.Errorf("goroutine %d call %d to server %d: %w", g, i, server, err)
					return
				}
				lr, ok := reply.(wire.LookupReply)
				if !ok || len(lr.Entries) != 1 || lr.Entries[0] != key {
					errCh <- fmt.Errorf("goroutine %d: reply %#v for key %q (demux cross-wired?)", g, reply, key)
					return
				}
				if g == 0 && i == callsEach/2 && drained.CompareAndSwap(false, true) {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					if err := servers[drainPeer].Shutdown(ctx); err != nil {
						errCh <- fmt.Errorf("drain shutdown: %w", err)
					}
					cancel()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if !drained.Load() {
		t.Fatal("drain never triggered")
	}
}

// stallOnceEcho stalls the first Lookup past the client timeout, then
// answers instantly — the request-timeout retry arm.
type stallOnceEcho struct {
	stall   time.Duration
	stalled atomic.Bool
}

func (h *stallOnceEcho) Handle(ctx context.Context, msg wire.Message) wire.Message {
	if m, ok := msg.(wire.Lookup); ok {
		if h.stalled.CompareAndSwap(false, true) {
			Detach(ctx)
			time.Sleep(h.stall)
		}
		return wire.LookupReply{Entries: []string{m.Key}}
	}
	return wire.Ack{}
}

// TestRetryTimeoutReusesMuxConn pins the first Retry arm: a request
// that times out is reported as ErrRequestTimeout (matching
// ErrServerDown, so Retry retries it), and the retry rides the same
// multiplexed connection — the dial counter must not move.
func TestRetryTimeoutReusesMuxConn(t *testing.T) {
	srv := NewServer(&stallOnceEcho{stall: 400 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	tm := newTransportMetrics(1)
	client := NewClient([]string{addr},
		WithTimeout(100*time.Millisecond),
		WithClientMetrics(tm))
	defer client.Close()

	// Bare client first: the timeout must carry both identities.
	_, err = client.Call(context.Background(), 0, wire.Lookup{Key: "slow", T: 1})
	if !errors.Is(err, ErrRequestTimeout) {
		t.Fatalf("stalled call = %v, want ErrRequestTimeout", err)
	}
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("stalled call = %v, must also match ErrServerDown for failover", err)
	}
	if dials := tm.Dials.At(0).Value(); dials != 1 {
		t.Fatalf("dials after timeout = %d, want 1 (timeout must not close the conn)", dials)
	}

	// Through Retry: the call succeeds on the same connection the
	// timed-out request left warm (the handler only stalls once).
	caller := newRetry(client, 3, time.Millisecond)
	reply, err := caller.Call(context.Background(), 0, wire.Lookup{Key: "fast", T: 1})
	if err != nil {
		t.Fatalf("retried call: %v", err)
	}
	if lr, ok := reply.(wire.LookupReply); !ok || len(lr.Entries) != 1 || lr.Entries[0] != "fast" {
		t.Fatalf("retried reply = %#v", reply)
	}
	if dials := tm.Dials.At(0).Value(); dials != 1 {
		t.Fatalf("dials after retry = %d, want 1 (deadline retries must reuse the mux conn)", dials)
	}
	if reuses := tm.Reuses.At(0).Value(); reuses < 1 {
		t.Fatalf("lookup reuses = %d, want >= 1", reuses)
	}
}

// TestRetryConnErrorRedials pins the second Retry arm: a connection-
// level failure (server restarted under the client) makes the retry
// dial afresh instead of reusing the dead connection.
func TestRetryConnErrorRedials(t *testing.T) {
	srv := NewServer(lookupEcho{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}

	tm := newTransportMetrics(1)
	client := NewClient([]string{addr},
		WithTimeout(time.Second),
		WithClientMetrics(tm))
	defer client.Close()
	caller := newRetry(client, 4, time.Millisecond)

	if _, err := caller.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatalf("priming call: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	srv2 := NewServer(lookupEcho{})
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("re-listen: %v", err)
	}
	defer srv2.Close()

	reply, err := caller.Call(context.Background(), 0, wire.Lookup{Key: "back", T: 1})
	if err != nil {
		t.Fatalf("call across restart: %v", err)
	}
	if lr, ok := reply.(wire.LookupReply); !ok || len(lr.Entries) != 1 || lr.Entries[0] != "back" {
		t.Fatalf("reply across restart = %#v", reply)
	}
	if dials := tm.Dials.At(0).Value(); dials < 2 {
		t.Fatalf("dials = %d, want >= 2 (conn-level failure must re-dial)", dials)
	}
}

// TestMuxPipelinesOnOneConn proves requests overlap on a single
// multiplexed connection: two slow requests issued together must finish
// in ~one delay, not two — the old serialized-conn transport would
// queue the second behind the first.
func TestMuxPipelinesOnOneConn(t *testing.T) {
	srv := NewServer(slowEcho{delay: 150 * time.Millisecond})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	client := NewClient([]string{addr}, WithTimeout(5*time.Second))
	defer client.Close()

	// Prime the single connection so both calls share it.
	if _, err := client.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatalf("priming call: %v", err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := client.Call(context.Background(), 0, wire.Lookup{Key: fmt.Sprintf("k%d", i), T: 1})
			errCh <- err
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatalf("pipelined call: %v", err)
		}
	}
	if elapsed := time.Since(start); elapsed > 290*time.Millisecond {
		t.Fatalf("two pipelined 150ms requests took %v: they serialized instead of overlapping", elapsed)
	}
}

// plantPipeConn backs server 0 of a client with an in-memory pipe whose
// far side never reads or writes: the first caller wedges in conn.Write
// until its write deadline, later callers queue their frames behind it
// and must rely on their ctx/timer arms to escape. Returns the planted
// muxConn and the far end (close it to release the wedged write).
func plantPipeConn(t *testing.T, c *Client) (*muxConn, net.Conn) {
	t.Helper()
	near, far := net.Pipe()
	mc := c.newMuxConn(near)
	c.servers()[0].mc = mc
	return mc, far
}

// TestCancelDuringEnqueueReleasesRegistration is the -race regression
// for the leaked pending-request bug: with a write stuck on a peer that
// never reads, a cancelled Call used to block forever behind it —
// holding its registration, invisible to timeout and cancellation
// alike. Every call queued behind the stuck write must return promptly
// with its context error (unwrapped, per the failure taxonomy); the one
// caller inside conn.Write returns when its write deadline passes, with
// the timeout taxonomy; and the pending map must drain to empty.
func TestCancelDuringEnqueueReleasesRegistration(t *testing.T) {
	client := NewClient([]string{"pipe:unused"}, WithTimeout(time.Second))
	defer client.Close()
	mc, far := plantPipeConn(t, client)
	defer far.Close()

	const callers = 128
	var wg sync.WaitGroup
	errs := make([]error, callers)
	start := time.Now()
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			if g%4 == 0 {
				cancel() // pre-cancelled: must not even linger
			} else {
				go func() {
					time.Sleep(time.Duration(g%16) * time.Millisecond)
					cancel()
				}()
			}
			defer cancel()
			_, errs[g] = client.Call(ctx, 0, wire.Lookup{Key: fmt.Sprintf("k%d", g), T: 1})
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("calls did not return: a call queued behind a stuck write ignored cancellation")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled calls took %v to return", elapsed)
	}
	for g, err := range errs {
		if err == nil {
			t.Fatalf("call %d succeeded against a peer that never replies", g)
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, ErrServerDown) {
			t.Fatalf("call %d error %v; want context.Canceled or the timeout taxonomy", g, err)
		}
	}
	mc.mu.Lock()
	leaked := len(mc.pending)
	mc.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d pending registrations leaked after every call returned", leaked)
	}
}

// TestEnqueueStallMapsToRequestTimeout: when a frame cannot be written
// within the per-call timeout (and the caller's context stays live),
// the call must fail like a request timeout — matching both
// ErrRequestTimeout and ErrServerDown so retry policies treat the
// stalled peer as failed — and must release its registration.
func TestEnqueueStallMapsToRequestTimeout(t *testing.T) {
	client := NewClient([]string{"pipe:unused"}, WithTimeout(200*time.Millisecond))
	defer client.Close()
	mc, far := plantPipeConn(t, client)
	defer far.Close()

	_, err := client.Call(context.Background(), 0, wire.Lookup{Key: "stalled", T: 1})
	if !errors.Is(err, ErrRequestTimeout) || !errors.Is(err, ErrServerDown) {
		t.Fatalf("stalled write returned %v; want the request-timeout taxonomy", err)
	}
	mc.mu.Lock()
	leaked := len(mc.pending)
	mc.mu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d pending registrations leaked after a stalled call", leaked)
	}
}
