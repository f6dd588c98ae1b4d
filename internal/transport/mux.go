package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Client is a Caller over TCP using multiplexed connections: a small
// fixed set of connections per server (WithMuxConns), each carrying
// many requests in flight at once. Every request frame is tagged with a
// connection-local id; a writer goroutine coalesces queued frames into
// single writes, and a demux reader routes each tagged reply to the
// call that issued it. Compared with the old checkout/checkin pool this
// removes the conn-per-concurrent-call scaling (and the dial storms a
// cold pool produced under load) while keeping the property the pool
// existed for: nested RPC chains — the Round-Robin delete protocol has
// a server call itself — cannot deadlock, because the server dispatches
// v2 frames concurrently instead of serializing per connection.
//
// Failure taxonomy, which the Retry middleware leans on:
//
//   - Dial and connection-level failures (reset, EOF, write error)
//     close the connection and report ErrServerDown; the next call
//     dials afresh.
//   - A request that exceeds the per-call timeout reports an error
//     matching both ErrRequestTimeout and ErrServerDown, but leaves
//     the connection open: the reply may simply be slow, and a retry
//     rides the same warm connection instead of re-dialing.
//   - Context cancellation reports ctx.Err() unwrapped; it is the
//     caller's deadline, not the server's fault, and is never retried.
type Client struct {
	timeout  time.Duration
	metrics  *telemetry.TransportMetrics
	muxConns int

	mu    sync.Mutex
	peers []*peer
}

var _ Caller = (*Client)(nil)

// DefaultMuxConns is the default number of multiplexed connections per
// server. Two keeps a spare lane so one saturated writer never idles a
// whole peer; -mux-conns raises it for many-core clients.
const DefaultMuxConns = 2

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

// WithMuxConns sets the multiplexed connections kept per server
// (default DefaultMuxConns). Values below 1 mean 1.
func WithMuxConns(n int) ClientOption {
	return func(c *Client) {
		if n < 1 {
			n = 1
		}
		c.muxConns = n
	}
}

// WithClientMetrics records the client's connection behavior into m:
// fresh dials vs. live-connection reuse per server (reuse split by
// lookup vs. maintenance traffic), with failed dials counting against
// the per-server error counter. Call-level metrics (calls, latency,
// call errors) belong to the Instrument middleware, which composes
// over the Client without double counting.
func WithClientMetrics(m *telemetry.TransportMetrics) ClientOption {
	return func(c *Client) { c.metrics = m }
}

// NewClient returns a Caller that treats addrs[i] as server i.
func NewClient(addrs []string, opts ...ClientOption) *Client {
	c := &Client{
		timeout:  5 * time.Second,
		muxConns: DefaultMuxConns,
	}
	for _, opt := range opts {
		opt(c)
	}
	c.peers = make([]*peer, len(addrs))
	for i, addr := range addrs {
		c.peers[i] = newPeer(addr, c.muxConns)
	}
	return c
}

// peer is one server's address and its fixed set of connection slots.
type peer struct {
	addr  string
	rr    atomic.Uint64
	slots []*connSlot
}

func newPeer(addr string, n int) *peer {
	p := &peer{addr: addr, slots: make([]*connSlot, n)}
	for i := range p.slots {
		p.slots[i] = &connSlot{}
	}
	return p
}

// connSlot holds one lazily-dialed multiplexed connection. The slot
// mutex covers dialing, so concurrent calls on the same slot wait for
// one dial instead of racing their own.
type connSlot struct {
	mu sync.Mutex
	mc *muxConn
}

// close tears down the slot's connection if one is live.
func (s *connSlot) close() {
	s.mu.Lock()
	mc := s.mc
	s.mc = nil
	s.mu.Unlock()
	if mc != nil {
		mc.fail(errors.New("transport: client closed"))
	}
}

// muxResult carries one demuxed reply to the call waiting on it.
type muxResult struct {
	msg wire.Message
	err error
}

// muxConn is one multiplexed connection: a writer goroutine draining a
// frame queue, a reader goroutine demultiplexing tagged replies into
// the pending map, and an id counter shared by all calls on the conn.
type muxConn struct {
	conn   net.Conn
	nextID atomic.Uint64

	writeCh chan *[]byte
	// done closes when the connection dies, releasing the writer
	// goroutine and any enqueuer blocked on a full write queue.
	done chan struct{}

	pmu     sync.Mutex
	pending map[uint64]chan muxResult
	dead    bool
	deadErr error
}

// dialMux dials addr and starts the connection's writer and reader.
func dialMux(ctx context.Context, addr string, timeout time.Duration) (*muxConn, error) {
	var d net.Dialer
	dialCtx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	conn, err := d.DialContext(dialCtx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return newMuxConn(conn), nil
}

// newMuxConn wraps an established connection with the writer and demux
// reader goroutines. Split from dialMux so tests can drive a muxConn
// over an in-memory pipe.
func newMuxConn(conn net.Conn) *muxConn {
	mc := &muxConn{
		conn:    conn,
		writeCh: make(chan *[]byte, 64),
		done:    make(chan struct{}),
		pending: make(map[uint64]chan muxResult),
	}
	go mc.writeLoop()
	go mc.readLoop()
	return mc
}

// register files a reply channel under a fresh id, failing if the
// connection already died.
func (mc *muxConn) register(id uint64, ch chan muxResult) error {
	mc.pmu.Lock()
	defer mc.pmu.Unlock()
	if mc.dead {
		return mc.deadErr
	}
	mc.pending[id] = ch
	return nil
}

// deregister abandons a request (timeout or cancellation). A reply
// arriving later finds no channel and is dropped by the demux loop.
func (mc *muxConn) deregister(id uint64) {
	mc.pmu.Lock()
	delete(mc.pending, id)
	mc.pmu.Unlock()
}

// alive reports whether the connection can still carry requests.
func (mc *muxConn) alive() bool {
	mc.pmu.Lock()
	defer mc.pmu.Unlock()
	return !mc.dead
}

// fail marks the connection dead, closes it, and delivers err to every
// pending call. Idempotent: only the first error sticks.
func (mc *muxConn) fail(err error) {
	mc.pmu.Lock()
	if mc.dead {
		mc.pmu.Unlock()
		return
	}
	mc.dead = true
	mc.deadErr = err
	pending := mc.pending
	mc.pending = nil
	mc.pmu.Unlock()
	close(mc.done)
	mc.conn.Close()
	for _, ch := range pending {
		// Non-blocking for the same reason as the demux loop: one
		// buffered slot per registration, at most one send ever happens.
		select {
		case ch <- muxResult{err: err}:
		default:
		}
	}
}

// errEnqueueStalled reports a frame that could not even reach the write
// queue within the per-call timeout: the writer goroutine is wedged on a
// conn.Write the peer is not draining, with the queue full behind it.
// Call maps it to requestTimeoutError (the connection itself may still
// recover once the peer reads).
var errEnqueueStalled = errors.New("transport: write queue stalled")

// enqueue hands one encoded frame to the writer goroutine. The buffer
// is returned to the frame pool after the write — or immediately, on
// any path that fails to queue it. A full queue does not block
// indefinitely: the caller's context and per-call timer are honored, so
// a cancelled or timed-out call always returns (and can deregister its
// pending id) even while the writer is stuck on a stalled peer.
func (mc *muxConn) enqueue(ctx context.Context, timeout <-chan time.Time, buf *[]byte) error {
	select {
	case mc.writeCh <- buf:
		return nil
	case <-mc.done:
		putFrameBuf(buf)
		mc.pmu.Lock()
		err := mc.deadErr
		mc.pmu.Unlock()
		return err
	case <-ctx.Done():
		putFrameBuf(buf)
		return ctx.Err()
	case <-timeout:
		putFrameBuf(buf)
		return errEnqueueStalled
	}
}

// writeLoop drains queued frames, coalescing everything immediately
// available into one buffer so a pipelined burst costs one syscall. It
// exits when the connection dies, recycling any frames still queued.
func (mc *muxConn) writeLoop() {
	scratch := getFrameBuf()
	defer putFrameBuf(scratch)
	for {
		var first *[]byte
		select {
		case first = <-mc.writeCh:
		case <-mc.done:
			mc.drainWriteQueue()
			return
		}
		*scratch = append((*scratch)[:0], *first...)
		putFrameBuf(first)
	coalesce:
		for {
			select {
			case next := <-mc.writeCh:
				*scratch = append(*scratch, *next...)
				putFrameBuf(next)
			default:
				break coalesce
			}
		}
		if _, err := mc.conn.Write(*scratch); err != nil {
			mc.fail(fmt.Errorf("transport: write: %w", err))
			mc.drainWriteQueue()
			return
		}
		if cap(*scratch) > maxRetainedBuf {
			*scratch = nil // grown for a large frame; regrown on demand
		}
	}
}

// drainWriteQueue recycles frames queued behind a dead connection.
// After fail() no new frames enter (enqueue selects on done), so a
// single non-blocking sweep empties the queue.
func (mc *muxConn) drainWriteQueue() {
	for {
		select {
		case buf := <-mc.writeCh:
			putFrameBuf(buf)
		default:
			return
		}
	}
}

// readLoop demultiplexes tagged replies into pending channels until the
// connection errors out.
func (mc *muxConn) readLoop() {
	fr := newFrameReader(mc.conn)
	for {
		fb, err := fr.next()
		if err != nil {
			mc.fail(err)
			return
		}
		// Decode copies into a fresh arena, so the reader's buffer is
		// reusable next loop.
		msg, err := wire.Decode(fb.Payload)
		if err != nil {
			mc.fail(fmt.Errorf("transport: decode frame: %w", err))
			return
		}
		mc.pmu.Lock()
		ch, ok := mc.pending[fb.ID]
		if ok {
			delete(mc.pending, fb.ID)
		}
		mc.pmu.Unlock()
		if ok {
			// Non-blocking: each id's channel is buffered for the single
			// reply it can receive (registration is deleted under pmu before
			// any send), so a stuck receiver can never wedge the demux loop.
			select {
			case ch <- muxResult{msg: msg}:
			default:
			}
		}
		// Unknown id: the call timed out or was cancelled and
		// deregistered itself; the late reply is dropped.
	}
}

// NumServers returns the number of configured addresses.
func (c *Client) NumServers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.peers)
}

// Addrs returns a copy of the configured address list.
func (c *Client) Addrs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	addrs := make([]string, len(c.peers))
	for i, p := range c.peers {
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
	c.peers = append(c.peers, newPeer(addr, c.muxConns))
	return len(c.peers) - 1
}

// RemoveServer deletes one server's address and connections, shifting
// higher ids down by one.
func (c *Client) RemoveServer(server int) {
	c.mu.Lock()
	if server < 0 || server >= len(c.peers) {
		c.mu.Unlock()
		return
	}
	p := c.peers[server]
	c.peers = append(c.peers[:server], c.peers[server+1:]...)
	c.mu.Unlock()
	for _, slot := range p.slots {
		slot.close()
	}
}

// peerFor resolves a server id to its peer.
func (c *Client) peerFor(server int) (*peer, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if server < 0 || server >= len(c.peers) {
		return nil, fmt.Errorf("transport: server %d out of range [0,%d)", server, len(c.peers))
	}
	return c.peers[server], nil
}

// checkout picks the peer's next connection slot round-robin and
// registers ch under a fresh request id on the slot's connection,
// dialing one when the slot is empty or its connection has died (a
// stale dead connection falls through to the dial arm rather than
// failing the call). Returns the connection and the registered id.
func (c *Client) checkout(ctx context.Context, server int, p *peer, maintenance bool, ch chan muxResult) (*muxConn, uint64, error) {
	slot := p.slots[p.rr.Add(1)%uint64(len(p.slots))]
	slot.mu.Lock()
	defer slot.mu.Unlock()
	if slot.mc != nil {
		id := slot.mc.nextID.Add(1)
		if err := slot.mc.register(id, ch); err == nil {
			c.metrics.RecordReuse(server, maintenance)
			return slot.mc, id, nil
		}
	}
	mc, err := dialMux(ctx, p.addr, c.timeout)
	c.metrics.RecordDial(server, err != nil)
	if err != nil {
		return nil, 0, err
	}
	slot.mc = mc
	id := mc.nextID.Add(1)
	if err := mc.register(id, ch); err != nil {
		// The fresh connection died before carrying a single request.
		return nil, 0, err
	}
	return mc, id, nil
}

// Call sends msg to server i over a multiplexed connection and waits
// for the tagged reply. Connection failures are reported as
// ErrServerDown so strategy drivers fail over exactly as they do under
// the in-process transport; see the type comment for the full failure
// taxonomy.
func (c *Client) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	p, err := c.peerFor(server)
	if err != nil {
		return nil, err
	}
	ch := make(chan muxResult, 1)
	mc, id, err := c.checkout(ctx, server, p, wire.MaintenanceKind(msg.Kind()), ch)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrServerDown, err)
	}
	buf, err := encodeFrame(id, msg)
	if err != nil {
		// The message's fault, not the server's: reported as is, with
		// the connection and the calls in flight on it left alone.
		mc.deregister(id)
		return nil, err
	}
	timer := time.NewTimer(c.timeout)
	defer timer.Stop()
	if err := mc.enqueue(ctx, timer.C, buf); err != nil {
		// Every enqueue failure abandons the registration before
		// returning; a late reply for the id is dropped by the demux loop.
		mc.deregister(id)
		switch {
		case err == errEnqueueStalled:
			return nil, &requestTimeoutError{server: server, d: c.timeout}
		case ctx.Err() != nil && err == ctx.Err():
			// The caller's deadline, not the server's fault: reported
			// unwrapped so policy layers never retry it.
			return nil, err
		default:
			return nil, fmt.Errorf("%w: %v", ErrServerDown, err)
		}
	}
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, fmt.Errorf("%w: %v", ErrServerDown, res.err)
		}
		return res.msg, nil
	case <-timer.C:
		// Request-level timeout: abandon the id but keep the connection —
		// a late reply is dropped by the demux loop, and a retry reuses
		// the warm connection instead of dialing.
		mc.deregister(id)
		return nil, &requestTimeoutError{server: server, d: c.timeout}
	case <-ctx.Done():
		mc.deregister(id)
		return nil, ctx.Err()
	}
}

// Close tears down every connection. The client stays usable: later
// calls dial afresh, which dynamic membership and restart flows rely
// on.
func (c *Client) Close() error {
	c.mu.Lock()
	peers := append([]*peer(nil), c.peers...)
	c.mu.Unlock()
	for _, p := range peers {
		for _, slot := range p.slots {
			slot.close()
		}
	}
	return nil
}
