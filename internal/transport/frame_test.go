package transport

import (
	"context"
	"encoding/binary"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// countingHandler counts the requests that reach the handler.
type countingHandler struct{ calls atomic.Int64 }

func (h *countingHandler) Handle(context.Context, wire.Message) wire.Message {
	h.calls.Add(1)
	return wire.Ack{}
}

// v1Frame frames msg in the retired v1 layout: a length prefix and the
// bare encoded message, no marker, no request id.
func v1Frame(msg wire.Message) []byte {
	payload := wire.Encode(msg)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

// TestServerCutsOffMalformedFrames: a connection whose first frame is
// not a well-formed frame — the bare-payload layout of the retired
// frame v1, a zero-length prefix, a prefix over wire.MaxFrameBody — is
// closed without the handler ever running.
func TestServerCutsOffMalformedFrames(t *testing.T) {
	prefix := func(n uint32) []byte { return binary.BigEndian.AppendUint32(nil, n) }
	cases := []struct {
		name  string
		bytes []byte
	}{
		{"v1 frame", v1Frame(wire.Ping{})},
		{"unknown leading byte", append(prefix(3), 0xEE, 1, 2)},
		{"zero-length prefix", prefix(0)},
		{"prefix over MaxFrameBody", prefix(wire.MaxFrameBody + 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := &countingHandler{}
			addr, _ := startHandler(t, h)
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatalf("Dial: %v", err)
			}
			defer conn.Close()
			if _, err := conn.Write(tc.bytes); err != nil {
				t.Fatalf("Write: %v", err)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := conn.Read(make([]byte, 64))
			if err == nil || os.IsTimeout(err) {
				t.Fatalf("Read = %d bytes, %v; want the server to close the connection", n, err)
			}
			if got := h.calls.Load(); got != 0 {
				t.Fatalf("handler ran %d times on a malformed frame", got)
			}
		})
	}
}

// TestClientFailsConnOnMalformedReply: a reply that is not a
// well-formed frame fails the connection and the call waiting on it.
func TestClientFailsConnOnMalformedReply(t *testing.T) {
	client := NewClient([]string{"pipe:unused"}, WithTimeout(5*time.Second))
	defer client.Close()
	mc, far := plantPipeConn(t, client)
	defer far.Close()
	go func() {
		// Swallow the request, answer in the retired v1 layout.
		if _, err := far.Read(make([]byte, 256)); err != nil {
			return
		}
		_, _ = far.Write(v1Frame(wire.Ack{}))
	}()
	if _, err := client.Call(context.Background(), 0, wire.Ping{}); err == nil {
		t.Fatal("call succeeded on a v1-framed reply")
	}
	if !mc.dead.Load() {
		t.Fatal("connection survived a malformed reply")
	}
}
