package transport

import (
	"context"
	"testing"
	"time"

	"repro/internal/wire"
)

// callAllocCeiling gates a warm round trip the way wire's alloc_test.go
// gates the codec: one Lookup answered with 12 entries over a mux conn
// on an in-memory pipe, client and server halves both counted (the
// server's reader and the client's demux reader run in this process).
// Measured 9: the request and the reply boxed into wire.Message (2),
// the server's decode of the one (2) and the client's of the other (3),
// and 2 that are net.Pipe's own, for the timer behind each write
// deadline — a TCP connection's deadline allocates nothing. The reply
// channel and timeout timer, 3 allocations and ~290 bytes per call
// before they were pooled, are not among them; the ceiling leaves slack
// for compiler wobble and trips on anything per call beyond that.
const callAllocCeiling = 11

type fixedReply struct{ reply wire.LookupReply }

func (h fixedReply) Handle(context.Context, wire.Message) wire.Message { return h.reply }

func TestCallAllocCeiling(t *testing.T) {
	client := NewClient([]string{"pipe:unused"}, WithTimeout(5*time.Second))
	defer client.Close()
	_, far := plantPipeConn(t, client)
	srv := NewServer(fixedReply{wire.LookupReply{Entries: make([]string, 12)}})
	defer srv.Close()
	if !srv.serveConn(far) {
		t.Fatal("fresh server refused a connection")
	}

	ctx := context.Background()
	call := func() {
		if _, err := client.Call(ctx, 0, wire.Lookup{Key: "hot-key", T: 12}); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	call() // grow the buffers, fill the waiter pool
	if allocs := testing.AllocsPerRun(200, call); allocs > callAllocCeiling {
		t.Errorf("Call: %.1f allocs/op, want <= %d", allocs, callAllocCeiling)
	}
}
