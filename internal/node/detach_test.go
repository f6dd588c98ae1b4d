package node

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/stats"
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
	if len(msgs) < int(wire.KindStoreBatches) {
		t.Fatalf("found %d kinds, the wire has at least %d", len(msgs), wire.KindStoreBatches)
	}
	return msgs
}

// parkAfter runs the node's Handle and then, for anything but a Ping,
// parks on the same goroutine until release closes: where the node has
// detached, that goroutine is no longer the connection's reader.
type parkAfter struct {
	inner   transport.Handler
	parked  chan struct{}
	release chan struct{}
}

func (h parkAfter) Handle(ctx context.Context, msg wire.Message) wire.Message {
	reply := h.inner.Handle(ctx, msg)
	if _, ping := msg.(wire.Ping); !ping {
		h.parked <- struct{}{}
		<-h.release
	}
	return reply
}

// TestOnlyLocalKindsRunOnTheReader: for every wire kind outside the
// allowlist wire.ServedInline, a handler parked inside that kind does
// not delay a Ping sent behind it on the same connection — the
// capability to detach reaching the node through a wrapper, as bench's
// tracing handler wraps it. The allowlist itself is pinned, so that a
// kind added later is detached unless someone decides otherwise here.
func TestOnlyLocalKindsRunOnTheReader(t *testing.T) {
	local := map[wire.Kind]bool{wire.KindLookup: true, wire.KindLookupBatch: true, wire.KindPing: true}
	for k := 0; k < 256; k++ {
		if got := wire.ServedInline(wire.Kind(k)); got != local[wire.Kind(k)] {
			t.Errorf("wire.ServedInline(%d) = %v, want %v", k, got, local[wire.Kind(k)])
		}
	}

	for _, msg := range everyKind(t) {
		if local[msg.Kind()] {
			continue
		}
		t.Run(fmt.Sprintf("%T", msg), func(t *testing.T) {
			h := parkAfter{inner: New(0, stats.NewRNG(1)), parked: make(chan struct{}, 1), release: make(chan struct{})}
			m := telemetry.NewServerMetrics(telemetry.NewRegistry(), "server")
			srv := transport.NewServer(h)
			srv.Instrument(m)
			addr, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatalf("Listen: %v", err)
			}
			defer srv.Close()
			client := transport.NewClient([]string{addr}, transport.WithTimeout(5*time.Second))
			defer client.Close()

			done := make(chan error, 1)
			go func() {
				_, err := client.Call(context.Background(), 0, msg)
				done <- err
			}()
			<-h.parked
			if _, err := client.Call(context.Background(), 0, wire.Ping{}); err != nil {
				t.Errorf("Ping behind a parked %T: %v", msg, err)
			}
			close(h.release)
			if err := <-done; err != nil {
				t.Errorf("parked %T: %v", msg, err)
			}
			if m.Detached.Value() != 1 || m.Inline.Value() != 1 {
				t.Errorf("detached %d inline %d, want the %T detached and the Ping inline", m.Detached.Value(), m.Inline.Value(), msg)
			}
		})
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
