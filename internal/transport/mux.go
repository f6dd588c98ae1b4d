package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Client is a Caller over TCP using one multiplexed connection per
// server, dialed on first use and carrying many requests in flight at
// once. Every request frame is tagged with a connection-local id. The
// calling goroutine appends its frame to the connection's write buffer
// and, unless another caller is already writing, writes the buffer out
// itself — its own frame and whatever was appended meanwhile — so there
// is no writer goroutine to wake; the connection's one reader goroutine
// routes each tagged reply straight to the call waiting for it. A
// writer that finds callers woken by their replies and not yet returned
// lets them join its write first (see muxConn.send). Nested RPC chains
// — the Round-Robin delete protocol has a server call itself — cannot
// deadlock, because a Server handler that waits on a peer has detached
// from its connection's reader first (see Handler).
//
// Failure taxonomy, which the Retry middleware leans on:
//
//   - Dial and connection-level failures (reset, EOF, write error, a
//     write the peer does not drain within the per-call timeout) close
//     the connection and report ErrServerDown; the next call dials
//     afresh. The caller whose write timed out sees ErrRequestTimeout.
//   - A request that exceeds the per-call timeout reports an error
//     matching both ErrRequestTimeout and ErrServerDown, but leaves
//     the connection open: the reply may simply be slow, and a retry
//     rides the same warm connection instead of re-dialing.
//   - Context cancellation reports ctx.Err() unwrapped; it is the
//     caller's deadline, not the server's fault, and is never retried.
type Client struct {
	timeout time.Duration
	metrics *telemetry.TransportMetrics

	// peers is an immutable server list that calls load without a lock;
	// AddServer and RemoveServer publish a replacement under mu.
	mu    sync.Mutex
	peers atomic.Pointer[[]*peer]

	// woken counts calls whose reply or error a demux reader or a failing
	// connection has claimed and whose Call has not returned yet: callers
	// that are runnable and about to send again.
	woken atomic.Int64
}

var _ Caller = (*Client)(nil)

// ErrRequestTimeout reports a request that got no reply within the
// per-call timeout while its connection stayed healthy. It matches
// ErrServerDown under errors.Is so failover and retry policies treat it
// as a server failure, but the transport keeps the connection: a retry
// reuses it rather than dialing.
var ErrRequestTimeout = errors.New("transport: request timed out")

// requestTimeoutError is the concrete timeout error; Is makes it match
// both ErrRequestTimeout (for tests and triage) and ErrServerDown (for
// the failover contract).
type requestTimeoutError struct {
	server int
	d      time.Duration
}

func (e *requestTimeoutError) Error() string {
	return fmt.Sprintf("transport: server %d: no reply within %v", e.server, e.d)
}

func (e *requestTimeoutError) Is(target error) bool {
	return target == ErrRequestTimeout || target == ErrServerDown
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithTimeout sets the per-call reply deadline (default 5s).
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithMuxConns is a no-op: the client keeps one connection per server
// whatever n is. It remains only for bench/'s cluster, which passes 1.
func WithMuxConns(n int) ClientOption {
	return func(*Client) {}
}

// WithClientMetrics records the client's connection behavior into m:
// fresh dials per server and failed dials (dial_errors).
// Call-level metrics (calls, latency, errors — the call a failed dial
// fails included) belong to the Instrument middleware, which composes
// over the Client without double counting.
func WithClientMetrics(m *telemetry.TransportMetrics) ClientOption {
	return func(c *Client) {
		if m != nil {
			c.metrics = m
		}
	}
}

// NewClient returns a Caller that treats addrs[i] as server i.
func NewClient(addrs []string, opts ...ClientOption) *Client {
	c := &Client{
		timeout: 5 * time.Second,
		metrics: &telemetry.TransportMetrics{},
	}
	for _, opt := range opts {
		opt(c)
	}
	for _, addr := range addrs {
		c.AddServer(addr)
	}
	return c
}

// peer is one server's address and its lazily dialed connection. The
// mutex covers dialing, so concurrent cold calls wait for one dial
// instead of racing their own.
type peer struct {
	addr string
	mu   sync.Mutex
	mc   *muxConn
}

// close tears down the peer's connection, if it has one.
func (p *peer) close() {
	p.mu.Lock()
	mc := p.mc
	p.mc = nil
	p.mu.Unlock()
	if mc != nil {
		mc.fail(errors.New("transport: client closed"))
	}
}

// muxResult carries one demuxed reply to the call waiting on it.
type muxResult struct {
	msg wire.Message
	err error
}

// waiter is what one call blocks on: the channel its reply arrives on
// and its timeout timer. Only the call that received on ch recycles its
// waiter — nothing can send to that channel again, its registration
// having been removed before the one send. A call that timed out or was
// cancelled may still get a late send, so its waiter is dropped.
type waiter struct {
	ch    chan muxResult
	timer *time.Timer
}

var waiterPool = sync.Pool{
	New: func() any { return &waiter{ch: make(chan muxResult, 1)} },
}

// muxConn is one multiplexed connection: a write buffer its callers
// flush themselves, and a reader goroutine that routes tagged replies
// to the calls registered in pending.
type muxConn struct {
	conn    net.Conn
	timeout time.Duration
	metrics *telemetry.TransportMetrics
	woken   *atomic.Int64 // the client's count; a claim adds to it under mu
	dead    atomic.Bool   // set under mu; read without it by checkout

	mu      sync.Mutex
	deadErr error
	nextID  uint64
	pending map[uint64]chan muxResult
	// Callers append frames to wbuf; the one that finds no flush in
	// progress writes wbuf out, and spare is the buffer it swaps in for
	// callers arriving during that write.
	wbuf     []byte
	wframes  int
	spare    []byte
	flushing bool
}

// newMuxConn wraps an established connection to one of c's servers and
// starts its demux reader; tests drive one over an in-memory pipe.
func (c *Client) newMuxConn(conn net.Conn) *muxConn {
	mc := &muxConn{conn: conn, timeout: c.timeout, metrics: c.metrics, woken: &c.woken,
		pending: make(map[uint64]chan muxResult)}
	go mc.readLoop()
	return mc
}

// deliver hands a call its result without ever blocking the demux loop:
// each registration's channel is buffered for the single send it can
// receive (the registration is removed under mu first).
func deliver(ch chan muxResult, res muxResult) {
	select {
	case ch <- res:
	default:
	}
}

// abandon gives up on request id (timeout, cancellation, a failed
// write). A reply arriving later finds no channel and is dropped by the
// demux loop; a reply or error claimed already is nobody's to receive,
// so its claim is settled here.
func (mc *muxConn) abandon(id uint64) {
	mc.mu.Lock()
	_, registered := mc.pending[id]
	delete(mc.pending, id)
	mc.mu.Unlock()
	if !registered {
		mc.woken.Add(-1)
	}
}

// fail marks the connection dead, closes it, and delivers err to every
// pending call, claiming them all. Idempotent: only the first error
// sticks.
func (mc *muxConn) fail(err error) {
	mc.mu.Lock()
	if mc.dead.Load() {
		mc.mu.Unlock()
		return
	}
	mc.dead.Store(true)
	mc.deadErr = err
	pending := mc.pending
	mc.pending = nil
	mc.woken.Add(int64(len(pending)))
	mc.mu.Unlock()
	mc.conn.Close()
	for _, ch := range pending {
		deliver(ch, muxResult{err: err})
	}
}

// send registers ch under a fresh request id and appends msg's frame to
// the write buffer. Unless another caller is flushing already (that one
// will carry the frame), it then writes the buffer out until it is
// empty: this caller's frame and every frame appended while it was in
// write. When the client has woken callers it first yields one
// scheduling round, whatever the kind: they are about to send again,
// and their frames join this write. The server reads them in one go
// and answers on its reader, in one write, every request that waits on
// no peer — a holder's store or remove as much as a lookup; one that
// does wait detaches and is answered when it is done, so sharing the
// write costs it nothing. Each write runs under a deadline of the
// per-call timeout; a peer that does not drain the socket for that long
// has failed, and so has the connection — part of a frame may be out.
// That error matches os.ErrDeadlineExceeded. An id is never left
// registered on an error; a nonzero one was claimed by the failure.
func (mc *muxConn) send(ch chan muxResult, msg wire.Message) (id uint64, err error) {
	mc.mu.Lock()
	if mc.dead.Load() {
		defer mc.mu.Unlock()
		return 0, mc.deadErr
	}
	mc.nextID++
	id = mc.nextID
	if mc.wbuf, err = appendFrame(mc.wbuf, id, msg); err != nil {
		mc.mu.Unlock()
		return 0, err
	}
	mc.pending[id] = ch
	mc.wframes++
	if mc.flushing {
		mc.mu.Unlock()
		return id, nil
	}
	mc.flushing = true
	if mc.woken.Load() > 0 {
		mc.mu.Unlock()
		runtime.Gosched()
		mc.mu.Lock()
	}
	for len(mc.wbuf) > 0 && err == nil {
		buf, frames := mc.wbuf, mc.wframes
		mc.wbuf, mc.wframes = mc.spare[:0], 0
		mc.mu.Unlock()
		mc.metrics.Frames.Add(int64(frames))
		mc.metrics.Writes.Inc()
		if err = mc.conn.SetWriteDeadline(time.Now().Add(mc.timeout)); err == nil {
			_, err = mc.conn.Write(buf)
		}
		if cap(buf) > maxRetainedBuf {
			buf = nil // grown for a large frame; regrown on demand
		}
		mc.mu.Lock()
		mc.spare = buf
	}
	mc.flushing = false
	mc.mu.Unlock()
	if err != nil {
		err = fmt.Errorf("transport: write: %w", err)
		mc.fail(err)
	}
	return id, err
}

// readLoop demultiplexes tagged replies into pending channels until the
// connection errors out.
func (mc *muxConn) readLoop() {
	fr := newFrameReader(mc.conn)
	for {
		id, msg, err := fr.next()
		if err != nil {
			mc.fail(err)
			return
		}
		mc.mu.Lock()
		ch, ok := mc.pending[id]
		if ok {
			delete(mc.pending, id)
			mc.woken.Add(1)
		}
		mc.mu.Unlock()
		if ok {
			deliver(ch, muxResult{msg: msg})
		}
		// Unknown id: the call timed out or was cancelled and
		// deregistered itself; the late reply is dropped.
	}
}

// servers returns the published server list, which nobody modifies.
func (c *Client) servers() []*peer {
	if p := c.peers.Load(); p != nil {
		return *p
	}
	return nil
}

// NumServers returns the number of configured addresses.
func (c *Client) NumServers() int { return len(c.servers()) }

// Addrs returns a copy of the configured address list.
func (c *Client) Addrs() []string {
	peers := c.servers()
	addrs := make([]string, len(peers))
	for i, p := range peers {
		addrs[i] = p.addr
	}
	return addrs
}

// AddServer appends a server address and returns its id (dynamic
// membership: the daemon re-points its peer client when a
// MembershipUpdate commits).
func (c *Client) AddServer(addr string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	peers := append(slices.Clip(c.servers()), &peer{addr: addr})
	c.peers.Store(&peers)
	return len(peers) - 1
}

// RemoveServer deletes one server's address and connection, shifting
// higher ids down by one.
func (c *Client) RemoveServer(server int) {
	c.mu.Lock()
	old := c.servers()
	if server < 0 || server >= len(old) {
		c.mu.Unlock()
		return
	}
	peers := slices.Delete(slices.Clone(old), server, server+1)
	c.peers.Store(&peers)
	c.mu.Unlock()
	old[server].close()
}

// checkout returns the server's connection, dialing one when it has
// none or its connection has died (a stale dead connection is replaced
// rather than failing the call).
func (c *Client) checkout(ctx context.Context, server int) (*muxConn, error) {
	peers := c.servers()
	if server < 0 || server >= len(peers) {
		return nil, fmt.Errorf("transport: server %d out of range [0,%d)", server, len(peers))
	}
	p := peers[server]
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mc != nil && !p.mc.dead.Load() {
		return p.mc, nil
	}
	var d net.Dialer
	dialCtx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	conn, err := d.DialContext(dialCtx, "tcp", p.addr)
	c.metrics.Dials.At(server).Inc()
	if err != nil {
		c.metrics.DialErrors.At(server).Inc()
		return nil, fmt.Errorf("%w: %v", ErrServerDown, err)
	}
	p.mc = c.newMuxConn(conn)
	return p.mc, nil
}

// Call sends msg to server i over a multiplexed connection and waits
// for the tagged reply. Connection failures are reported as
// ErrServerDown so strategy drivers fail over exactly as they do under
// the in-process network; see the type comment for the full failure
// taxonomy.
func (c *Client) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	mc, err := c.checkout(ctx, server)
	if err != nil {
		return nil, err
	}
	w := waiterPool.Get().(*waiter)
	if w.timer == nil {
		w.timer = time.NewTimer(c.timeout)
	} else {
		w.timer.Reset(c.timeout) // stopped and drained when it was recycled
	}
	id, err := mc.send(w.ch, msg)
	if err != nil {
		w.timer.Stop()
		if id != 0 {
			mc.abandon(id) // claimed by the failure its write met
		}
		switch {
		case errors.Is(err, wire.ErrOversized):
			// The message's fault, not the server's: reported as is, with
			// the connection and the calls in flight on it left alone.
			return nil, err
		case errors.Is(err, os.ErrDeadlineExceeded):
			return nil, &requestTimeoutError{server: server, d: c.timeout}
		default:
			return nil, fmt.Errorf("%w: %v", ErrServerDown, err)
		}
	}
	select {
	case res := <-w.ch:
		c.woken.Add(-1)
		// Stop, and drain without blocking if it fired meanwhile: that
		// leaves the timer's channel empty for the next Reset under the
		// timer semantics before and after Go 1.23 alike.
		if !w.timer.Stop() {
			select {
			case <-w.timer.C:
			default:
			}
		}
		waiterPool.Put(w)
		if res.err != nil {
			return nil, fmt.Errorf("%w: %v", ErrServerDown, res.err)
		}
		return res.msg, nil
	case <-w.timer.C:
		// Request-level timeout: abandon the id but keep the connection —
		// a late reply is dropped by the demux loop, and a retry reuses
		// the warm connection instead of dialing.
		mc.abandon(id)
		return nil, &requestTimeoutError{server: server, d: c.timeout}
	case <-ctx.Done():
		// The caller's deadline, not the server's fault: reported
		// unwrapped so policy layers never retry it.
		mc.abandon(id)
		w.timer.Stop()
		return nil, ctx.Err()
	}
}

// Close tears down every server's connection. The client stays usable: later
// calls dial afresh, which dynamic membership and restart flows rely
// on.
func (c *Client) Close() error {
	for _, p := range c.servers() {
		p.close()
	}
	return nil
}
