package transport

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/wire"
)

// hugeReply is a message whose frame is over wire.MaxFrameBody. One
// giant string is impossible (the codec caps strings at 64k), so it
// carries many entries.
func hugeReply() wire.LookupReply {
	body := strings.Repeat("x", 1020)
	entries := make([]string, wire.MaxPayload/1024+64)
	for i := range entries {
		entries[i] = body
	}
	return wire.LookupReply{Entries: entries}
}

// gatedEcho holds Lookup "slow" until release closes, signalling
// started first; it answers Lookup "huge" with hugeReply.
type gatedEcho struct {
	started chan struct{}
	release chan struct{}
}

func (h gatedEcho) Handle(ctx context.Context, msg wire.Message) wire.Message {
	m, ok := msg.(wire.Lookup)
	switch {
	case ok && m.Key == "slow":
		Detach(ctx)
		h.started <- struct{}{}
		<-h.release
		return wire.LookupReply{Entries: []string{m.Key}}
	case ok && m.Key == "huge":
		return hugeReply()
	}
	return wire.Ack{}
}

// withCallInFlight starts a gatedEcho server and a one-connection
// client, parks a "slow" call in the handler, runs during, and then
// requires the parked call — which shared the connection with whatever
// during sent — to complete with its real reply.
func withCallInFlight(t *testing.T, during func(c *Client)) {
	t.Helper()
	h := gatedEcho{started: make(chan struct{}, 1), release: make(chan struct{})}
	addr, _ := startHandler(t, h)
	client := NewClient([]string{addr}, WithMuxConns(1), WithTimeout(5*time.Second))
	defer client.Close()
	// Runs before the server closes, which waits for the parked handler
	// — also when during fails the test.
	var once sync.Once
	release := func() { once.Do(func() { close(h.release) }) }
	defer release()

	type result struct {
		reply wire.Message
		err   error
	}
	inFlight := make(chan result, 1)
	go func() {
		reply, err := client.Call(context.Background(), 0, wire.Lookup{Key: "slow", T: 1})
		inFlight <- result{reply, err}
	}()
	<-h.started

	during(client)

	release()
	res := <-inFlight
	if res.err != nil {
		t.Fatalf("call in flight on the same connection failed: %v", res.err)
	}
	if lr, ok := res.reply.(wire.LookupReply); !ok || len(lr.Entries) != 1 || lr.Entries[0] != "slow" {
		t.Fatalf("in-flight reply = %#v", res.reply)
	}
}

// TestCallRefusesOversizedRequest: a request over the frame limit is
// refused at the sender as the message's fault — not ErrServerDown, so
// nothing fails over or retries — and is never written: the server
// would drop the connection over it, failing every call in flight.
func TestCallRefusesOversizedRequest(t *testing.T) {
	withCallInFlight(t, func(c *Client) {
		_, err := c.Call(context.Background(), 0, hugeReply())
		if !errors.Is(err, wire.ErrOversized) || errors.Is(err, ErrServerDown) {
			t.Fatalf("oversized request: err = %v, want wire.ErrOversized and not ErrServerDown", err)
		}
	})
}

// TestServerAnswersOversizedReplyWithError: a handler reply over the
// frame limit reaches the caller as an error reply, not as a frame the
// client must hang up over.
func TestServerAnswersOversizedReplyWithError(t *testing.T) {
	withCallInFlight(t, func(c *Client) {
		reply, err := c.Call(context.Background(), 0, wire.Lookup{Key: "huge", T: 1})
		if err != nil {
			t.Fatalf("call with an oversized reply: %v", err)
		}
		if ack, ok := reply.(wire.Ack); !ok || !strings.Contains(ack.Err, "oversized") {
			t.Fatalf("reply = %#v, want an Ack naming the oversized reply", reply)
		}
	})
}

// TestLargeFrameBuffersAreNotRetained: one large frame must not pin its
// buffer afterwards — neither in a connection's write buffers, server
// or client side, nor in its frame reader.
func TestLargeFrameBuffersAreNotRetained(t *testing.T) {
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	go io.Copy(io.Discard, far)

	sc := &serverConn{s: NewServer(nil), conn: near, out: make([]byte, 4*maxRetainedBuf)}
	sc.flush()
	if cap(sc.out) > maxRetainedBuf {
		t.Fatalf("server kept a %d-byte out-buffer after a large reply, retention bound is %d", cap(sc.out), maxRetainedBuf)
	}

	large := wire.LookupReply{Entries: make([]string, 4*maxRetainedBuf/8)}
	for i := range large.Entries {
		large.Entries[i] = "entry-xx"
	}
	mc := NewClient(nil, WithTimeout(time.Second)).newMuxConn(near)
	if _, err := mc.send(make(chan muxResult, 1), large); err != nil {
		t.Fatalf("send: %v", err)
	}
	if cap(mc.wbuf) > maxRetainedBuf || cap(mc.spare) > maxRetainedBuf {
		t.Fatalf("client kept %d/%d-byte write buffers after a large request, retention bound is %d", cap(mc.wbuf), cap(mc.spare), maxRetainedBuf)
	}

	stream := wire.AppendFrameV2(nil, 1, large)
	stream = wire.AppendFrameV2(stream, 2, wire.Ping{})
	fr := newFrameReader(bytes.NewReader(stream))
	for id := uint64(1); id <= 2; id++ {
		if got, _, err := fr.next(); err != nil || got != id {
			t.Fatalf("frame %d: got id %d, %v", id, got, err)
		}
	}
	if cap(fr.body) > maxRetainedBuf {
		t.Fatalf("reader kept a %d-byte body after a large frame, retention bound is %d", cap(fr.body), maxRetainedBuf)
	}
}

// TestClientPoolReuseUnderChurn: checkout/checkin keeps working across
// bursts larger than the idle cap.
func TestClientPoolReuseUnderChurn(t *testing.T) {
	addr, _ := startServer(t)
	client := NewClient([]string{addr})
	defer client.Close()
	ctx := context.Background()
	for burst := 0; burst < 3; burst++ {
		done := make(chan error, 10)
		for g := 0; g < 10; g++ {
			go func() {
				_, err := client.Call(ctx, 0, wire.Ping{})
				done <- err
			}()
		}
		for g := 0; g < 10; g++ {
			if err := <-done; err != nil {
				t.Fatalf("burst %d: %v", burst, err)
			}
		}
	}
}

// TestClientCloseThenCall: a closed client can still place calls (it
// dials fresh connections); Close only drains the idle pool.
func TestClientCloseThenCall(t *testing.T) {
	addr, _ := startServer(t)
	client := NewClient([]string{addr})
	if _, err := client.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatalf("call after Close: %v", err)
	}
}
