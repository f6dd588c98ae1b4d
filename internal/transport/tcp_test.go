package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestFrameRoundTrip(t *testing.T) {
	msgs := []wire.Message{
		wire.Ping{},
		wire.Lookup{Key: "k", T: 12},
		wire.LookupReply{Entries: []string{"a", "b"}},
	}
	var stream []byte
	for i, m := range msgs {
		var err error
		if stream, err = appendFrame(stream, uint64(i+1), m); err != nil {
			t.Fatalf("appendFrame: %v", err)
		}
	}
	fr := newFrameReader(bytes.NewReader(stream))
	for i, want := range msgs {
		id, got, err := fr.next()
		if err != nil {
			t.Fatalf("next: %v", err)
		}
		if id != uint64(i+1) || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame round trip: got id %d %#v, want id %d %#v", id, got, i+1, want)
		}
	}
	if _, _, err := fr.next(); !errors.Is(err, io.EOF) {
		t.Fatalf("next on empty = %v, want EOF", err)
	}
}

func TestFrameReaderRejectsBadFrames(t *testing.T) {
	frame := wire.AppendFrameV2(nil, 1, wire.Lookup{Key: "abcdef", T: 1})
	for name, data := range map[string][]byte{
		"zero length":       {0, 0, 0, 0},
		"over MaxFrameBody": binary.BigEndian.AppendUint32(nil, wire.MaxFrameBody+1),
		"truncated body":    frame[:len(frame)-2],
		"retired v1 layout": v1Frame(wire.Lookup{Key: "abcdef", T: 1}),
	} {
		if _, _, err := newFrameReader(bytes.NewReader(data)).next(); err == nil {
			t.Errorf("%s: frame accepted", name)
		}
	}
}

// lookupEcho is a Handler that returns the key back.
type lookupEcho struct{}

func (lookupEcho) Handle(_ context.Context, msg wire.Message) wire.Message {
	switch m := msg.(type) {
	case wire.Lookup:
		return wire.LookupReply{Entries: []string{m.Key}}
	case wire.Ping:
		return wire.Ack{}
	default:
		return wire.Ack{Err: "unexpected"}
	}
}

func startServer(t *testing.T) (addr string, srv *Server) {
	t.Helper()
	return startHandler(t, lookupEcho{})
}

// startHandler serves h on a loopback port until the test ends.
func startHandler(t *testing.T, h Handler) (addr string, srv *Server) {
	t.Helper()
	srv = NewServer(h)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestClientServerRoundTrip(t *testing.T) {
	addr, _ := startServer(t)
	client := NewClient([]string{addr})
	defer client.Close()

	reply, err := client.Call(context.Background(), 0, wire.Lookup{Key: "hello", T: 1})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	lr, ok := reply.(wire.LookupReply)
	if !ok || len(lr.Entries) != 1 || lr.Entries[0] != "hello" {
		t.Fatalf("reply = %#v", reply)
	}
}

func TestClientReusesConnection(t *testing.T) {
	addr, _ := startServer(t)
	client := NewClient([]string{addr})
	defer client.Close()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := client.Call(ctx, 0, wire.Ping{}); err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
	}
}

func TestClientUnreachableServerIsDown(t *testing.T) {
	// Reserve an address and close it so nothing listens there.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	client := NewClient([]string{addr}, WithTimeout(200*time.Millisecond))
	defer client.Close()
	_, err = client.Call(context.Background(), 0, wire.Ping{})
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("Call to dead addr = %v, want ErrServerDown", err)
	}
}

func TestClientServerStopAndRestart(t *testing.T) {
	srv := NewServer(lookupEcho{})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	client := NewClient([]string{addr}, WithTimeout(500*time.Millisecond))
	defer client.Close()
	ctx := context.Background()
	if _, err := client.Call(ctx, 0, wire.Ping{}); err != nil {
		t.Fatalf("first Call: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Now the server is gone: calls must fail as down, not hang.
	if _, err := client.Call(ctx, 0, wire.Ping{}); !errors.Is(err, ErrServerDown) {
		t.Fatalf("Call after close = %v, want ErrServerDown", err)
	}

	// A new server on the same address serves the same client again. The
	// first call may still land on a stale connection whose death the
	// demux reader has not yet observed — that surfaces as one more
	// ErrServerDown (the arm the Retry middleware covers) — but the call
	// after it must dial afresh and succeed.
	srv2 := NewServer(lookupEcho{})
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("re-listen: %v", err)
	}
	defer srv2.Close()
	if _, err := client.Call(ctx, 0, wire.Ping{}); err != nil {
		if !errors.Is(err, ErrServerDown) {
			t.Fatalf("Call after restart: %v, want success or ErrServerDown", err)
		}
		if _, err := client.Call(ctx, 0, wire.Ping{}); err != nil {
			t.Fatalf("Call after restart retry: %v", err)
		}
	}
}

// TestClientConcurrentCalls also pins that cold calls racing to one
// server share a single dial: the server's connection is dialed once,
// however many goroutines find it missing at the same time.
func TestClientConcurrentCalls(t *testing.T) {
	addr, _ := startServer(t)
	tm := newTransportMetrics(2)
	client := NewClient([]string{addr, addr}, WithClientMetrics(tm))
	defer client.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 200)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				_, err := client.Call(context.Background(), g%2, wire.Lookup{Key: "x", T: 1})
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent Call: %v", err)
	}
	for i := 0; i < 2; i++ {
		if got := tm.Dials.At(i).Value(); got != 1 {
			t.Fatalf("server %d dials = %d, want 1", i, got)
		}
	}
}

func TestClientOutOfRange(t *testing.T) {
	client := NewClient([]string{"127.0.0.1:1"})
	defer client.Close()
	if _, err := client.Call(context.Background(), 5, wire.Ping{}); err == nil {
		t.Fatal("out-of-range server accepted")
	}
	if client.NumServers() != 1 {
		t.Fatalf("NumServers = %d", client.NumServers())
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	_, srv := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestClientContextDeadline(t *testing.T) {
	// A server that never replies: accept and stall.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			io.Copy(io.Discard, conn) // read but never reply
		}
	}()

	client := NewClient([]string{ln.Addr().String()}, WithTimeout(5*time.Second))
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = client.Call(ctx, 0, wire.Ping{})
	if err == nil {
		t.Fatal("stalled call succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("context deadline not honored: call took %v", elapsed)
	}
}

// slowEcho delays each reply so a shutdown can race an in-flight
// request deterministically. It detaches before it waits, as the
// Handler contract asks.
type slowEcho struct {
	delay   time.Duration
	started chan struct{}
}

func (h slowEcho) Handle(ctx context.Context, msg wire.Message) wire.Message {
	m, ok := msg.(wire.Lookup)
	if !ok {
		return wire.Ack{} // priming Pings reply instantly, no signal
	}
	Detach(ctx)
	if h.started != nil {
		h.started <- struct{}{}
	}
	time.Sleep(h.delay)
	return wire.LookupReply{Entries: []string{m.Key}}
}

func TestServerShutdownDrainsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	srv := NewServer(slowEcho{delay: 150 * time.Millisecond, started: started})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	client := NewClient([]string{addr})
	defer client.Close()

	// An idle connection, parked in its blocking read.
	if _, err := client.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatalf("priming call: %v", err)
	}

	type result struct {
		reply wire.Message
		err   error
	}
	inFlight := make(chan result, 1)
	go func() {
		reply, err := client.Call(context.Background(), 0, wire.Lookup{Key: "drain-me", T: 1})
		inFlight <- result{reply, err}
	}()
	<-started // the handler is now running

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(ctx)
	}()

	// The in-flight request must complete with its real reply, not a
	// reset connection.
	res := <-inFlight
	if res.err != nil {
		t.Fatalf("in-flight call during shutdown: %v", res.err)
	}
	lr, ok := res.reply.(wire.LookupReply)
	if !ok || len(lr.Entries) != 1 || lr.Entries[0] != "drain-me" {
		t.Fatalf("in-flight reply = %#v", res.reply)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// New connections are refused once shutdown completes.
	if _, err := client.Call(context.Background(), 0, wire.Ping{}); !errors.Is(err, ErrServerDown) {
		t.Fatalf("call after shutdown = %v, want ErrServerDown", err)
	}
}

func TestServerShutdownForcesHungConns(t *testing.T) {
	started := make(chan struct{}, 1)
	srv := NewServer(slowEcho{delay: 2 * time.Second, started: started})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()

	client := NewClient([]string{addr}, WithTimeout(10*time.Second))
	defer client.Close()
	go func() {
		_, _ = client.Call(context.Background(), 0, wire.Lookup{Key: "hung", T: 1})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with hung handler = %v, want DeadlineExceeded", err)
	}
}
