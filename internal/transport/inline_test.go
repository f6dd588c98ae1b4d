package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// countingConn counts Write calls, and holds the first one until hold
// is closed when hold is set.
type countingConn struct {
	net.Conn
	writes atomic.Int64
	hold   chan struct{}
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.writes.Add(1) == 1 && c.hold != nil {
		<-c.hold
	}
	return c.Conn.Write(p)
}

// servePipe serves h on one end of an in-memory pipe, counted, and
// returns the other end together with the server's metrics.
func servePipe(t *testing.T, h Handler) (far net.Conn, served *countingConn, m *telemetry.TransportMetrics) {
	t.Helper()
	near, far := net.Pipe()
	served = &countingConn{Conn: near}
	m = telemetry.NewServerMetrics(telemetry.NewRegistry(), "server")
	srv := NewServer(h)
	srv.Instrument(m)
	if !srv.serveConn(served) {
		t.Fatal("fresh server refused a connection")
	}
	t.Cleanup(func() {
		far.Close()
		srv.Close()
	})
	return far, served, m
}

// frames concatenates one request frame per message, ids from 1.
func frames(t *testing.T, msgs ...wire.Message) []byte {
	t.Helper()
	var stream []byte
	for i, m := range msgs {
		var err error
		if stream, err = appendFrame(stream, uint64(i+1), m); err != nil {
			t.Fatalf("appendFrame: %v", err)
		}
	}
	return stream
}

// readIDs reads n reply frames within five seconds and returns their
// request ids in arrival order.
func readIDs(t *testing.T, conn net.Conn, fr *frameReader, n int) []uint64 {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	ids := make([]uint64, n)
	for i := range ids {
		id, _, err := fr.next()
		if err != nil {
			t.Fatalf("reply %d of %d: %v", i+1, n, err)
		}
		ids[i] = id
	}
	return ids
}

// TestPipelinedRequestsShareOneWrite: N lookups that reach the server
// in one segment are answered on the reader and leave in one write —
// counted at the connection and read off the server's counters alike.
func TestPipelinedRequestsShareOneWrite(t *testing.T) {
	const n = 16
	far, served, m := servePipe(t, lookupEcho{})
	msgs := make([]wire.Message, n)
	for i := range msgs {
		msgs[i] = wire.Lookup{Key: fmt.Sprintf("k%d", i), T: 1}
	}
	if _, err := far.Write(frames(t, msgs...)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	for i, id := range readIDs(t, far, newFrameReader(far), n) {
		if id != uint64(i+1) {
			t.Fatalf("reply %d answers request %d: inline replies must keep request order", i+1, id)
		}
	}
	if got := served.writes.Load(); got != 1 {
		t.Errorf("%d pipelined lookups cost %d server writes, want 1", n, got)
	}
	if m.Writes.Value() != 1 || m.Frames.Value() != n || m.Inline.Value() != n || m.Detached.Value() != 0 {
		t.Errorf("server counters: writes %d frames %d inline %d detached %d, want 1 %d %d 0",
			m.Writes.Value(), m.Frames.Value(), m.Inline.Value(), m.Detached.Value(), n, n)
	}
}

// TestPartialFrameFlushesPendingReplies: a complete request followed by
// a fragment of the next — less than a header, a header, half a body —
// is answered before the reader blocks waiting for the rest.
func TestPartialFrameFlushesPendingReplies(t *testing.T) {
	second := frames(t, wire.Ping{}, wire.Lookup{Key: "the-second-request", T: 1})
	first := len(frames(t, wire.Ping{}))
	for _, cut := range []int{first + 2, first + 4, first + 4 + (len(second)-first-4)/2} {
		t.Run(fmt.Sprintf("%d_of_%d_bytes", cut, len(second)), func(t *testing.T) {
			far, _, _ := servePipe(t, lookupEcho{})
			fr := newFrameReader(far)
			if _, err := far.Write(second[:cut]); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if ids := readIDs(t, far, fr, 1); ids[0] != 1 {
				t.Fatalf("first reply answers request %d", ids[0])
			}
			if _, err := far.Write(second[cut:]); err != nil {
				t.Fatalf("Write: %v", err)
			}
			if ids := readIDs(t, far, fr, 1); ids[0] != 2 {
				t.Fatalf("second reply answers request %d", ids[0])
			}
		})
	}
}

// parkingEcho detaches and parks every Lookup until release closes,
// counting those that got past Detach; Pings are answered inline.
type parkingEcho struct {
	parked  *atomic.Int64
	release chan struct{}
}

func (h parkingEcho) Handle(ctx context.Context, msg wire.Message) wire.Message {
	if _, ok := msg.(wire.Lookup); !ok {
		return wire.Ack{}
	}
	Detach(ctx)
	h.parked.Add(1)
	<-h.release
	return wire.LookupReply{}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDetachedHandlersAreBoundedPerConn: maxInflightPerConn handlers
// may be out at once; the next request that detaches waits for a slot
// with the connection unread behind it, and everything is answered once
// slots free up.
func TestDetachedHandlersAreBoundedPerConn(t *testing.T) {
	h := parkingEcho{parked: new(atomic.Int64), release: make(chan struct{})}
	far, _, m := servePipe(t, h)
	msgs := make([]wire.Message, maxInflightPerConn+2)
	for i := range msgs {
		msgs[i] = wire.Lookup{Key: "park", T: 1}
	}
	msgs[len(msgs)-1] = wire.Ping{}
	wrote := make(chan error, 1)
	go func() {
		_, err := far.Write(frames(t, msgs...))
		wrote <- err
	}()

	waitFor(t, "the handler slots to fill", func() bool { return h.parked.Load() == maxInflightPerConn })
	time.Sleep(50 * time.Millisecond) // anything that is going to slip past the bound has time to
	if got := h.parked.Load(); got != maxInflightPerConn {
		t.Fatalf("%d handlers detached at once, bound is %d", got, maxInflightPerConn)
	}
	if got := m.Inline.Value(); got != 0 {
		t.Fatalf("the Ping behind a full connection was answered (%d inline)", got)
	}

	close(h.release)
	readIDs(t, far, newFrameReader(far), len(msgs))
	if err := <-wrote; err != nil {
		t.Fatalf("Write: %v", err)
	}
	if m.Detached.Value() != maxInflightPerConn+1 || m.Inline.Value() != 1 {
		t.Errorf("detached %d inline %d, want %d and 1", m.Detached.Value(), m.Inline.Value(), maxInflightPerConn+1)
	}
}

// TestConcurrentCallsShareWrites: callers that arrive while another
// caller's write is in progress queue their frames behind it, and the
// writing caller sends them all in its next write — N calls, 2 writes.
func TestConcurrentCallsShareWrites(t *testing.T) {
	const n = 16
	near, far := net.Pipe()
	srv := NewServer(lookupEcho{})
	defer srv.Close()
	if !srv.serveConn(far) {
		t.Fatal("fresh server refused a connection")
	}
	held := &countingConn{Conn: near, hold: make(chan struct{})}
	tm := newTransportMetrics(1)
	client := NewClient([]string{"pipe:unused"}, WithMuxConns(1), WithTimeout(5*time.Second), WithClientMetrics(tm))
	defer client.Close()
	mc := client.newMuxConn(held)
	client.servers()[0].slots[0].mc = mc

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			reply, err := client.Call(context.Background(), 0, wire.Lookup{Key: key, T: 1})
			if lr, ok := reply.(wire.LookupReply); err != nil || !ok || len(lr.Entries) != 1 || lr.Entries[0] != key {
				errs <- fmt.Errorf("call %d: reply %#v, %v", i, reply, err)
			}
		}(i)
	}
	waitFor(t, "every other caller to queue behind the held write", func() bool {
		mc.mu.Lock()
		defer mc.mu.Unlock()
		return mc.wframes == n-1
	})
	close(held.hold)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := held.writes.Load(); got != 2 {
		t.Errorf("%d concurrent calls cost %d client writes, want 2", n, got)
	}
	if tm.Writes.Value() != 2 || tm.Frames.Value() != n {
		t.Errorf("client counters: writes %d frames %d, want 2 and %d", tm.Writes.Value(), tm.Frames.Value(), n)
	}
}
