package transport

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
	"repro/internal/wire"
)

// echoHandler replies with an Ack carrying the request kind, and can
// record calls.
type echoHandler struct {
	mu    sync.Mutex
	calls int
}

func (h *echoHandler) Handle(_ context.Context, msg wire.Message) wire.Message {
	h.mu.Lock()
	h.calls++
	h.mu.Unlock()
	return wire.LookupReply{Entries: []string{string(rune('0' + msg.Kind()))}}
}

func (h *echoHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

// newTestNetwork returns an n-server in-process network, each slot
// bound to an echoHandler.
func newTestNetwork(t *testing.T, n int) (*Chaos, []*echoHandler) {
	t.Helper()
	tr := NewChaos(n, stats.NewRNG(1))
	handlers := make([]*echoHandler, n)
	for i := range handlers {
		handlers[i] = &echoHandler{}
		tr.Bind(i, handlers[i])
	}
	return tr, handlers
}

func TestInprocDispatchAndCount(t *testing.T) {
	tr, handlers := newTestNetwork(t, 3)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := tr.Call(ctx, 1, wire.Ping{}); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	if _, err := tr.Call(ctx, 2, wire.Ping{}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if handlers[0].count() != 0 || handlers[1].count() != 5 || handlers[2].count() != 1 {
		t.Fatalf("handler call counts = %d,%d,%d", handlers[0].count(), handlers[1].count(), handlers[2].count())
	}
}

func TestInprocDownServer(t *testing.T) {
	tr, handlers := newTestNetwork(t, 2)
	ctx := context.Background()
	tr.SetDown(0, true)
	if !tr.Down(0) || tr.Down(1) {
		t.Fatal("Down flags wrong")
	}
	if tr.DownCount() != 1 {
		t.Fatalf("DownCount = %d", tr.DownCount())
	}
	_, err := tr.Call(ctx, 0, wire.Ping{})
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("Call to down server = %v, want ErrServerDown", err)
	}
	// A rejected call never reaches the handler.
	if handlers[0].count() != 0 {
		t.Fatal("down server processed a message")
	}
	tr.SetDown(0, false)
	if _, err := tr.Call(ctx, 0, wire.Ping{}); err != nil {
		t.Fatalf("Call after recover: %v", err)
	}
}

func TestInprocOutOfRange(t *testing.T) {
	tr, _ := newTestNetwork(t, 2)
	ctx := context.Background()
	if _, err := tr.Call(ctx, -1, wire.Ping{}); err == nil {
		t.Fatal("negative server accepted")
	}
	if _, err := tr.Call(ctx, 2, wire.Ping{}); err == nil {
		t.Fatal("out-of-range server accepted")
	}
}

func TestInprocUnboundHandler(t *testing.T) {
	tr := NewChaos(1, stats.NewRNG(1))
	if _, err := tr.Call(context.Background(), 0, wire.Ping{}); err == nil {
		t.Fatal("unbound handler accepted")
	}
}

func TestInprocNumServers(t *testing.T) {
	tr := NewChaos(7, stats.NewRNG(1))
	if tr.NumServers() != 7 {
		t.Fatalf("NumServers = %d", tr.NumServers())
	}
}

func TestNewInprocPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewChaos(0, rng) did not panic")
		}
	}()
	NewChaos(0, stats.NewRNG(1))
}

// reentrantHandler calls back into the network from within Handle,
// as nodes do when broadcasting, and counts the messages it handles.
type reentrantHandler struct {
	tr      *Chaos
	peer    int
	handled *atomic.Int64
}

func (h *reentrantHandler) Handle(ctx context.Context, msg wire.Message) wire.Message {
	h.handled.Add(1)
	if _, ok := msg.(wire.Ping); ok {
		// Nested call, including self-call via the transport.
		if _, err := h.tr.Call(ctx, h.peer, wire.Ack{}); err != nil {
			return wire.Ack{Err: err.Error()}
		}
	}
	return wire.Ack{}
}

func TestInprocNestedCalls(t *testing.T) {
	tr := NewChaos(2, stats.NewRNG(1))
	var handled atomic.Int64
	tr.Bind(0, &reentrantHandler{tr: tr, peer: 0, handled: &handled}) // self-call
	tr.Bind(1, &reentrantHandler{tr: tr, peer: 0, handled: &handled})
	reply, err := tr.Call(context.Background(), 1, wire.Ping{})
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if ack := reply.(wire.Ack); ack.Err != "" {
		t.Fatalf("nested call failed: %s", ack.Err)
	}
	if got := handled.Load(); got != 2 {
		t.Fatalf("handled = %d, want 2 (outer + nested)", got)
	}
}

func TestInprocConcurrentCalls(t *testing.T) {
	tr, handlers := newTestNetwork(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := tr.Call(context.Background(), (g+i)%4, wire.Ping{}); err != nil {
					t.Errorf("Call: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, h := range handlers {
		total += h.count()
	}
	if total != 800 {
		t.Fatalf("total calls = %d, want 800", total)
	}
}
