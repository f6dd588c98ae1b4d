package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
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
// Every call shares the client's one timeout, which a connection keeps
// with a single timer (see muxConn.expire): calls register in id order,
// so they fall due in that order, and no call arms a timer of its own.
//
// Failure taxonomy, which the Retry middleware leans on:
//
//   - Dial and connection-level failures (reset, EOF, write error, a
//     write the peer does not drain within the timeout) close the
//     connection and report ErrServerDown; the next call dials afresh.
//     The caller whose write stalled sees ErrRequestTimeout.
//   - A request that gets no reply within the timeout reports an error
//     matching both ErrRequestTimeout and ErrServerDown, but leaves
//     the connection open: the connection's timer claims the call as
//     the demux reader claims a reply, a late reply is dropped, and a
//     retry rides the same warm connection instead of re-dialing.
//   - Context cancellation reports ctx.Err() unwrapped; it is the
//     caller's deadline, not the server's fault, and is never retried.
type Client struct {
	timeout time.Duration
	metrics *telemetry.TransportMetrics

	// peers is an immutable server list that calls load without a lock;
	// SetAddrs publishes a replacement under mu.
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
	c.SetAddrs(addrs)
	return c
}

// peer is one server's address and its lazily dialed connection. The
// mutex covers dialing, so concurrent cold calls wait for one dial
// instead of racing their own.
type peer struct {
	addr string
	mu   sync.Mutex
	mc   *muxConn
	gone bool // dropped from the member list: calls fail, nothing dials
}

// close tears down the peer's connection, if it has one; with drop set
// the peer is gone for good, so a caller still holding a list that
// names it (see Pin) gets ErrServerDown instead of a fresh dial nobody
// would close.
func (p *peer) close(drop bool) {
	p.mu.Lock()
	mc := p.mc
	p.mc = nil
	p.gone = p.gone || drop
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

// errStalled fails a connection whose write the peer did not drain
// within the timeout; the caller that was writing reports it as a
// request timeout, every other pending call as ErrServerDown.
var errStalled = errors.New("transport: write not drained within the timeout")

// replyChans pools the channels calls receive their result on. Only a
// call that received on its channel recycles it — nothing can send to
// it again, its registration having been removed before the one send. A
// call that was cancelled or whose write failed may still get a late
// send, so its channel is dropped.
var replyChans = sync.Pool{
	New: func() any { return make(chan muxResult, 1) },
}

// pendingCall is a registered call: where its result goes and when it
// falls due.
type pendingCall struct {
	ch       chan muxResult
	deadline time.Time
}

// muxConn is one multiplexed connection: a write buffer its callers
// flush themselves, a reader goroutine that routes tagged replies to
// the calls registered in pending, and a timer that expires the calls,
// and the write, that outlive the timeout.
type muxConn struct {
	conn    net.Conn
	timeout time.Duration
	metrics *telemetry.TransportMetrics
	woken   *atomic.Int64 // the client's count; a claim adds to it under mu
	dead    atomic.Bool   // set under mu; read without it by checkout

	mu      sync.Mutex
	deadErr error
	nextID  uint64
	pending map[uint64]pendingCall
	// timer runs expire. While armed is set it fires no later than the
	// earliest deadline outstanding, a pending call's or the write's in
	// progress; it is re-armed only when it fires (see expire).
	timer *time.Timer
	armed bool
	// Callers append frames to wbuf; the one that finds no flush in
	// progress writes wbuf out, and spare is the buffer it swaps in for
	// callers arriving during that write. The conn.Write in progress,
	// if any, falls due at writeDue (zero otherwise).
	wbuf     []byte
	wframes  int
	spare    []byte
	flushing bool
	writeDue time.Time
}

// newMuxConn wraps an established connection to one of c's servers and
// starts its demux reader; tests drive one over an in-memory pipe.
func (c *Client) newMuxConn(conn net.Conn) *muxConn {
	mc := &muxConn{conn: conn, timeout: c.timeout, metrics: c.metrics, woken: &c.woken,
		pending: make(map[uint64]pendingCall)}
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

// arm makes sure the timer fires by the deadline of a call or write
// that starts now: an armed timer does, since every earlier start falls
// due earlier. Caller holds mu.
func (mc *muxConn) arm() {
	if mc.armed {
		return
	}
	mc.armed = true
	if mc.timer == nil {
		mc.timer = time.AfterFunc(mc.timeout, mc.expire)
	} else {
		mc.timer.Reset(mc.timeout)
	}
}

// expire is the connection's timer. It fails the connection when the
// write in progress is past its deadline, and otherwise claims every
// pending call past its own, delivering ErrRequestTimeout as the demux
// reader delivers a reply, so a reply arriving later is dropped and the
// connection stays open. It then re-arms the timer for the earliest
// deadline left, which is the oldest pending call's or the write's; a
// call that returned meanwhile leaves the timer armed for its deadline,
// and the firing finds the next one.
func (mc *muxConn) expire() {
	mc.mu.Lock()
	mc.armed = false
	if mc.dead.Load() {
		mc.mu.Unlock()
		return
	}
	now := time.Now()
	if !mc.writeDue.IsZero() && !now.Before(mc.writeDue) {
		mc.mu.Unlock()
		mc.fail(errStalled)
		return
	}
	next := mc.writeDue
	for id, p := range mc.pending {
		if !now.Before(p.deadline) {
			delete(mc.pending, id)
			mc.woken.Add(1)
			deliver(p.ch, muxResult{err: ErrRequestTimeout})
		} else if next.IsZero() || p.deadline.Before(next) {
			next = p.deadline
		}
	}
	if !next.IsZero() {
		mc.armed = true
		mc.timer.Reset(next.Sub(now))
	}
	mc.mu.Unlock()
}

// abandon gives up on request id (cancellation, a failed write). A
// reply arriving later finds no channel and is dropped by the demux
// loop; a reply or error claimed already is nobody's to receive, so its
// claim is settled here.
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
	if mc.timer != nil {
		mc.timer.Stop()
		mc.armed = false
	}
	mc.mu.Unlock()
	mc.conn.Close()
	for _, p := range pending {
		deliver(p.ch, muxResult{err: err})
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
// write costs it nothing. A write falls due a timeout after it starts,
// as a call does after it registers; a peer that does not drain the
// socket for that long has failed, and so has the connection — part of
// a frame may be out. The timer fails it with errStalled (expire), which
// send then returns. An id is never left registered on an error; a
// nonzero one was claimed by the failure.
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
	mc.pending[id] = pendingCall{ch: ch, deadline: time.Now().Add(mc.timeout)}
	mc.arm()
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
		mc.writeDue = time.Now().Add(mc.timeout)
		mc.arm()
		mc.mu.Unlock()
		mc.metrics.Frames.Add(int64(frames))
		mc.metrics.Writes.Inc()
		_, err = mc.conn.Write(buf)
		if cap(buf) > maxRetainedBuf {
			buf = nil // grown for a large frame; regrown on demand
		}
		mc.mu.Lock()
		mc.writeDue = time.Time{}
		mc.spare = buf
	}
	mc.flushing = false
	mc.mu.Unlock()
	if err != nil {
		mc.fail(fmt.Errorf("transport: write: %w", err))
		mc.mu.Lock()
		err = mc.deadErr // errStalled if the timer failed the write
		mc.mu.Unlock()
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
		p, ok := mc.pending[id]
		if ok {
			delete(mc.pending, id)
			mc.woken.Add(1)
		}
		mc.mu.Unlock()
		if ok {
			deliver(p.ch, muxResult{msg: msg})
		}
		// Unknown id: the call timed out or was cancelled, its
		// registration is gone, and the late reply is dropped.
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

// SetAddrs replaces the server list with addrs (dynamic membership: a
// committed MembershipUpdate re-lists the members). A server named
// before and after keeps its connection; the others' are closed.
func (c *Client) SetAddrs(addrs []string) {
	c.mu.Lock()
	old := c.servers()
	free := make(map[string][]*peer, len(old))
	for _, p := range old {
		free[p.addr] = append(free[p.addr], p)
	}
	peers := make([]*peer, len(addrs))
	for i, addr := range addrs {
		if kept := free[addr]; len(kept) > 0 {
			peers[i], free[addr] = kept[0], kept[1:]
		} else {
			peers[i] = &peer{addr: addr}
		}
	}
	c.peers.Store(&peers)
	c.mu.Unlock()
	for _, left := range free {
		for _, p := range left {
			p.close(true)
		}
	}
}

// Pin returns a client that numbers the servers as c's list does now,
// whatever SetAddrs does to c later, and shares c's connections: what a
// member's node calls its peers through under one committed view.
func (c *Client) Pin() *Client {
	pinned := &Client{timeout: c.timeout, metrics: c.metrics}
	pinned.peers.Store(c.peers.Load())
	return pinned
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
	if p.gone {
		return nil, fmt.Errorf("%w: server %d has left the member list", ErrServerDown, server)
	}
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
	ch := replyChans.Get().(chan muxResult)
	id, err := mc.send(ch, msg)
	if err != nil {
		if id != 0 {
			mc.abandon(id) // claimed by the failure its write met
		}
		switch {
		case errors.Is(err, wire.ErrOversized):
			// The message's fault, not the server's: reported as is, with
			// the connection and the calls in flight on it left alone.
			return nil, err
		case err == errStalled:
			return nil, &requestTimeoutError{server: server, d: c.timeout}
		default:
			return nil, fmt.Errorf("%w: %v", ErrServerDown, err)
		}
	}
	var res muxResult
	if done := ctx.Done(); done == nil {
		res = <-ch
	} else {
		select {
		case res = <-ch:
		case <-done:
			// The caller's deadline, not the server's fault: reported
			// unwrapped so policy layers never retry it.
			mc.abandon(id)
			return nil, ctx.Err()
		}
	}
	c.woken.Add(-1)
	replyChans.Put(ch)
	switch {
	case res.err == ErrRequestTimeout:
		// Request-level timeout: the timer claimed the id but kept the
		// connection — a late reply is dropped by the demux loop, and a
		// retry reuses the warm connection instead of dialing.
		return nil, &requestTimeoutError{server: server, d: c.timeout}
	case res.err != nil:
		return nil, fmt.Errorf("%w: %v", ErrServerDown, res.err)
	}
	return res.msg, nil
}

// Close tears down every server's connection. The client stays usable: later
// calls dial afresh, which dynamic membership and restart flows rely
// on.
func (c *Client) Close() error {
	for _, p := range c.servers() {
		p.close(false)
	}
	return nil
}
