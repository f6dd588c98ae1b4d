// Package transport connects clients and lookup servers.
//
// Two implementations are provided:
//
//   - Inproc dispatches messages by direct function call, counts every
//     message a server processes (the paper's update-overhead cost model,
//     Sec. 6.4: a point-to-point message costs 1, a broadcast costs n),
//     and supports failure injection for the fault-tolerance experiments.
//
//   - Client/Server in tcp.go carry the same wire messages over real
//     sockets, proving the protocols run on a network, not only in a
//     simulator.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/wire"
)

// ErrServerDown is returned by Call when the target server has failed.
// Client strategy drivers react by probing a different server, as the
// paper specifies ("keep on selecting another random server until an
// operational server is found").
var ErrServerDown = errors.New("transport: server down")

// Caller sends a request message to one server and returns its reply.
// It is implemented by *Inproc and *Client and consumed by the strategy
// drivers and server nodes (for peer traffic).
type Caller interface {
	// Call delivers msg to the given server and returns the reply.
	Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error)
	// NumServers returns the cluster size n.
	NumServers() int
}

// Handler processes one message at a server and produces a reply.
// *node.Node and *proxy.Proxy implement it.
//
// Behind a Server, Handle runs on the goroutine that read the request,
// and nothing else on that connection is read or answered until it
// returns. A handler that answers from memory just returns. One about
// to wait — on a peer, the WAL, another request — first calls
// Detach(ctx), on that goroutine: the replies queued so far are
// written, another goroutine takes over the reading — one parked on
// the connection since it finished an earlier request, or else a new
// one — and the caller carries on as this request's own goroutine, its
// reply written when Handle returns. At most maxInflightPerConn
// handlers per connection are detached at once; Detach blocks for a
// slot beyond that, and does nothing when repeated. The capability
// rides ctx, so it reaches a handler through wrappers and derived
// contexts; a ctx no Server issued (Inproc's, a test's) carries none,
// and Detach does nothing there.
type Handler interface {
	Handle(ctx context.Context, msg wire.Message) wire.Message
}

// Inproc is an in-process transport over a dynamic set of handlers
// (fixed-size clusters never resize it; dynamic membership grows and
// compacts it via Add/Remove). It is safe for concurrent use, although
// the simulations are single-goroutine; handlers may issue nested
// Calls (broadcasts, migrations) from within Handle.
type Inproc struct {
	// mu guards the three slice headers; the per-slot state is held by
	// pointer so counters survive slice reallocation on Add/Remove.
	mu       sync.RWMutex
	handlers []Handler
	down     []*atomic.Bool
	// processed[i] counts messages processed by server i. Calls to a
	// down server are rejected without counting (the server never
	// processed them).
	processed []*atomic.Int64
}

var _ Caller = (*Inproc)(nil)

// NewInproc returns a transport for n servers with no handlers bound
// yet; Bind each server before the first Call.
func NewInproc(n int) *Inproc {
	if n <= 0 {
		panic("transport: NewInproc requires n > 0")
	}
	t := &Inproc{
		handlers:  make([]Handler, n),
		down:      make([]*atomic.Bool, n),
		processed: make([]*atomic.Int64, n),
	}
	for i := 0; i < n; i++ {
		t.down[i] = new(atomic.Bool)
		t.processed[i] = new(atomic.Int64)
	}
	return t
}

// Bind attaches the handler for one server id.
func (t *Inproc) Bind(server int, h Handler) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers[server] = h
}

// Add appends a new server slot with no handler bound and returns its
// id (dynamic membership: a joiner gets the next slot).
func (t *Inproc) Add(h Handler) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.handlers = append(t.handlers, h)
	t.down = append(t.down, new(atomic.Bool))
	t.processed = append(t.processed, new(atomic.Int64))
	return len(t.handlers) - 1
}

// Remove deletes one server slot, shifting higher ids down by one
// (dynamic membership: a drained member's slot is compacted away; the
// caller renumbers the surviving nodes to match).
func (t *Inproc) Remove(server int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if server < 0 || server >= len(t.handlers) {
		return
	}
	t.handlers = append(t.handlers[:server], t.handlers[server+1:]...)
	t.down = append(t.down[:server], t.down[server+1:]...)
	t.processed = append(t.processed[:server], t.processed[server+1:]...)
}

// NumServers returns the cluster size.
func (t *Inproc) NumServers() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.handlers)
}

// Call dispatches msg to the server's handler, counting it as one
// processed message. A down server returns ErrServerDown. An expired
// or cancelled context fails before delivery, mirroring how a real
// network client would abandon the request.
func (t *Inproc) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.mu.RLock()
	if server < 0 || server >= len(t.handlers) {
		n := len(t.handlers)
		t.mu.RUnlock()
		return nil, fmt.Errorf("transport: server %d out of range [0,%d)", server, n)
	}
	h := t.handlers[server]
	down := t.down[server]
	processed := t.processed[server]
	t.mu.RUnlock()
	if down.Load() {
		return nil, fmt.Errorf("%w: server %d", ErrServerDown, server)
	}
	if h == nil {
		return nil, fmt.Errorf("transport: server %d has no handler bound", server)
	}
	processed.Add(1)
	return h.Handle(ctx, msg), nil
}

// SetDown marks a server as failed or recovered.
func (t *Inproc) SetDown(server int, down bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if server >= 0 && server < len(t.down) {
		t.down[server].Store(down)
	}
}

// Down reports whether a server is failed.
func (t *Inproc) Down(server int) bool {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return server >= 0 && server < len(t.down) && t.down[server].Load()
}

// DownCount returns the number of failed servers.
func (t *Inproc) DownCount() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := 0
	for i := range t.down {
		if t.down[i].Load() {
			c++
		}
	}
	return c
}

// Processed returns the number of messages processed by one server.
func (t *Inproc) Processed(server int) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if server < 0 || server >= len(t.processed) {
		return 0
	}
	return t.processed[server].Load()
}

// TotalProcessed returns the number of messages processed by all
// servers: the paper's update-overhead metric.
func (t *Inproc) TotalProcessed() int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var total int64
	for i := range t.processed {
		total += t.processed[i].Load()
	}
	return total
}

// ResetCounters zeroes all message counters.
func (t *Inproc) ResetCounters() {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := range t.processed {
		t.processed[i].Store(0)
	}
}
