package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Frame format: a 4-byte big-endian body length, then the body
// wire.AppendFrameV2 lays out — marker, 8-byte request id, encoded
// message. The Server and the multiplexed Client in mux.go write frames
// with appendFrame and read them with a frameReader, so both ends
// enforce the same bounds.

// maxRetainedBuf bounds the capacity of a buffer kept across frames: a
// connection's read buffer and its write buffers. A frame may be as
// large as wire.MaxFrameBody, but one such frame must not pin that much
// memory per connection afterwards.
const maxRetainedBuf = 64 << 10

// frameReader reads frames off one connection into a reused buffer.
type frameReader struct {
	br   *bufio.Reader
	hdr  [4]byte
	body []byte
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{br: bufio.NewReaderSize(r, 32<<10)}
}

// buffered reports whether a complete frame is already in the read
// buffer, so that next will return it without touching the connection.
func (fr *frameReader) buffered() bool {
	if fr.br.Buffered() < len(fr.hdr) {
		return false
	}
	hdr, _ := fr.br.Peek(len(fr.hdr))
	return uint32(fr.br.Buffered()-len(fr.hdr)) >= binary.BigEndian.Uint32(hdr)
}

// next reads one frame and returns its request id and decoded message.
// Decode copies into a fresh arena, so the message does not alias the
// reader's buffer: that is free for the next frame at once, whoever
// reads it.
func (fr *frameReader) next() (uint64, wire.Message, error) {
	if cap(fr.body) > maxRetainedBuf {
		fr.body = nil // before the wait for the next frame, however long
	}
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return 0, nil, fmt.Errorf("transport: read: %w", err)
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n == 0 || n > wire.MaxFrameBody {
		return 0, nil, fmt.Errorf("transport: bad frame length %d", n)
	}
	if cap(fr.body) < int(n) {
		fr.body = make([]byte, n)
	}
	fr.body = fr.body[:n]
	if _, err := io.ReadFull(fr.br, fr.body); err != nil {
		return 0, nil, fmt.Errorf("transport: read frame body: %w", err)
	}
	fb, err := wire.ParseFrameBody(fr.body)
	if err != nil {
		return 0, nil, fmt.Errorf("transport: parse frame: %w", err)
	}
	msg, err := wire.Decode(fb.Payload)
	if err != nil {
		return 0, nil, fmt.Errorf("transport: decode frame: %w", err)
	}
	return fb.ID, msg, nil
}

// appendFrame appends msg to buf as one frame. A frame the peer's
// frameReader would refuse — and drop the connection over, failing
// every other call in flight on it — is refused here instead: buf comes
// back as it was, with an error matching wire.ErrOversized.
func appendFrame(buf []byte, id uint64, msg wire.Message) ([]byte, error) {
	start := len(buf)
	buf = wire.AppendFrameV2(buf, id, msg)
	if n := len(buf) - start - 4; n > wire.MaxFrameBody {
		return buf[:start], fmt.Errorf("transport: %w: %T frame body of %d bytes exceeds %d",
			wire.ErrOversized, msg, n, wire.MaxFrameBody)
	}
	return buf, nil
}

// appendReply appends the reply frame for request id. An oversized
// reply is answered with an error the caller can read; a short Ack
// always fits, so its encode error is not checked.
func appendReply(buf []byte, id uint64, reply wire.Message) []byte {
	if reply == nil {
		reply = wire.Ack{}
	}
	buf, err := appendFrame(buf, id, reply)
	if err != nil {
		buf, _ = appendFrame(buf, id, wire.Ack{Err: err.Error()})
	}
	return buf
}

// maxInflightPerConn bounds the detached handlers a single connection
// may have running at once. The bound is per connection, not global: it
// stops one pipelining peer from monopolizing the scheduler while
// leaving unrelated connections untouched.
const maxInflightPerConn = 256

// maxParkedPerConn bounds the goroutines a connection keeps parked
// between detached requests (see serverConn.park): the concurrency a
// peer sustains, not its bursts, is what reuse has to cover.
const maxParkedPerConn = 8

// Server accepts TCP connections and serves a Handler under one rule:
// the goroutine that has the bytes does the work. Each connection has
// one reader goroutine, which runs Handle itself and appends the reply
// to the connection's out-buffer; the buffer is written once no further
// complete request is buffered behind it, and always before the reader
// blocks in read, so k pipelined requests cost one write and no
// goroutine start. A handler stays on the reader until it is about to
// wait on a peer or another goroutine, and detaches there (see
// Handler); replies carry the id of the request they answer, so they
// overtake slow requests. A goroutine that has finished a detached
// request parks on its connection, and the next Detach hands the
// reading to a parked goroutine — whose stack has already grown to a
// request's depth — before it would start a new one. A peer that sends
// a malformed frame is cut off.
type Server struct {
	handler Handler
	metrics *telemetry.TransportMetrics

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a server for the given handler.
func NewServer(h Handler) *Server {
	return &Server{handler: h, metrics: &telemetry.TransportMetrics{}, conns: make(map[net.Conn]struct{})}
}

// Instrument records requests handled inline and detached, reader
// goroutines started, reply frames and writes into m. Call it before
// Listen.
func (s *Server) Instrument(m *telemetry.TransportMetrics) {
	if m != nil {
		s.metrics = m
	}
}

// Listen binds to addr (e.g. "127.0.0.1:0") and serves on it (Serve).
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return s.Serve(ln)
}

// Serve begins accepting connections on ln in a background goroutine
// and returns its address; the server owns ln from then on.
func (s *Server) Serve(ln net.Listener) (string, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return "", errors.New("transport: server already closed")
	}
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.serveConn(conn) {
			conn.Close()
			return
		}
	}
}

// serveConn starts a reader for an accepted connection, unless the
// server has closed.
func (s *Server) serveConn(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	c := &serverConn{
		s: s, conn: conn, fr: newFrameReader(conn),
		sem:    make(chan struct{}, maxInflightPerConn),
		parked: make(chan struct{}, maxParkedPerConn),
		wake:   make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	c.startReader()
	return true
}

// serverConn is one accepted connection. fr, out and outFrames belong
// to the connection's current reader goroutine and change hands only in
// Detach; the rest is shared with the detached handlers.
type serverConn struct {
	s    *Server
	conn net.Conn

	fr        *frameReader
	out       []byte // replies the reader has encoded and not yet written
	outFrames int

	sem  chan struct{} // one slot per detached handler
	wmu  sync.Mutex    // guards conn.Write and hbuf
	hbuf []byte        // where a detached handler encodes its reply

	// parked holds one token per goroutine that has offered to read the
	// connection next (see park) and has not been taken up. wake hands
	// one of them the reading; only the reader detaches, so at most one
	// hand-over is pending. done is closed when the connection ends.
	parked chan struct{}
	wake   chan struct{}
	done   chan struct{}
}

// connReader is what Detach finds in a handler's ctx: the reader
// goroutine the handler runs on.
type connReader struct {
	c        *serverConn
	detached bool
}

type detachKey struct{}

// Detach tells the Server that the calling handler is about to wait;
// Handler states the contract. While every handler slot is out the
// connection goes unread, as backpressure.
func Detach(ctx context.Context) {
	r, ok := ctx.Value(detachKey{}).(*connReader)
	if !ok || r.detached {
		return
	}
	r.detached = true
	c := r.c
	c.flush()
	c.sem <- struct{}{}
	select {
	case <-c.parked:
		c.wake <- struct{}{}
	default:
		c.startReader()
	}
}

// startReader starts a goroutine that takes over the reading. The
// caller is on a goroutine s.wg already counts (or holds s.mu with the
// server open), so the Add cannot race a Wait at zero.
func (c *serverConn) startReader() {
	c.s.wg.Add(1)
	c.s.metrics.ReadersStarted.Inc()
	go c.readLoop()
}

// readLoop is the life of one of the connection's goroutines: it reads
// and serves until a request detaches, finishes that request, and then
// parks until a later Detach hands it the reading again. It leaves when
// the connection ends or enough others are parked already.
func (c *serverConn) readLoop() {
	defer c.s.wg.Done()
	r := &connReader{c: c}
	ctx := context.WithValue(context.Background(), detachKey{}, r) // once per goroutine, not per request
	for c.serve(ctx, r) {
		r.detached = false
	}
}

// park offers the calling goroutine, which is finishing a detached
// request, as a later reader, unless maxParkedPerConn have offered
// already. The offer is made before the reply is written: a client that
// sends its next request on seeing this reply finds the offer standing.
func (c *serverConn) park() bool {
	select {
	case c.parked <- struct{}{}:
		return true
	default:
		return false
	}
}

// serve reads and serves requests as the connection's reader. It
// returns true when a request detached, this goroutine finished it and
// was then handed the reading again; false when the goroutine is to
// exit — nobody needs it parked, or the connection is finished, which
// the reader that finds it so then closes.
func (c *serverConn) serve(ctx context.Context, r *connReader) bool {
	for {
		// Written before the reader can block — whenever next would have
		// to touch the connection (no frame, a header, half a body) — and
		// when a long pipeline has queued a buffer's worth.
		if len(c.out) >= maxRetainedBuf || !c.fr.buffered() {
			c.flush()
		}
		id, msg, err := c.fr.next()
		if err != nil {
			break
		}
		reply := c.s.handler.Handle(ctx, msg)
		if r.detached {
			c.s.metrics.Detached.Inc()
			parked := c.park()
			c.wmu.Lock()
			c.hbuf = appendReply(c.hbuf[:0], id, reply)
			c.hbuf = c.write(c.hbuf, 1)
			c.wmu.Unlock()
			<-c.sem
			if !parked {
				return false
			}
			select {
			case <-c.wake:
				return true
			case <-c.done:
				return false
			}
		}
		c.s.metrics.Inline.Inc()
		c.out = appendReply(c.out, id, reply)
		c.outFrames++
	}
	// A read error, or Shutdown's read-deadline kick, ends the reading;
	// handlers already out still get their replies written, which taking
	// every slot waits for. No handler is left to detach after that, so
	// nothing is sent on wake again and the parked goroutines can go.
	c.flush()
	for i := 0; i < cap(c.sem); i++ {
		c.sem <- struct{}{}
	}
	close(c.done)
	c.conn.Close()
	c.s.mu.Lock()
	delete(c.s.conns, c.conn)
	c.s.mu.Unlock()
	return false
}

// flush writes the replies the reader has queued.
func (c *serverConn) flush() {
	if len(c.out) > 0 {
		c.wmu.Lock()
		c.out, c.outFrames = c.write(c.out, c.outFrames), 0
		c.wmu.Unlock()
	}
}

// write sends buf, which carries frames replies, with wmu held, and
// returns it emptied for reuse — or nil, if it grew for a large reply.
func (c *serverConn) write(buf []byte, frames int) []byte {
	c.s.metrics.Frames.Add(int64(frames))
	c.s.metrics.Writes.Inc()
	if _, err := c.conn.Write(buf); err != nil {
		// The peer is gone; the reader will notice too. Replies already
		// written stay valid, these are lost with the conn.
		c.conn.Close()
	}
	if cap(buf) > maxRetainedBuf {
		return nil
	}
	return buf[:0]
}

// Shutdown stops the server gracefully: the listener closes (no new
// connections), requests already in flight run to completion and their
// replies are written, and idle connections are kicked out of their
// blocking reads. It returns once every serving goroutine has exited,
// or forces the remaining connections closed when ctx expires first.
//
// A client whose request raced the shutdown sees its connection close
// without a reply — indistinguishable from a server crash, which the
// retry/failover layers already handle. What Shutdown guarantees is
// the converse: any reply the server has started processing is
// delivered before the process moves on to flushing durable state.
func (s *Server) Shutdown(ctx context.Context) error {
	// Expire reads only: a reader waiting for the next request fails out
	// immediately, while a handler still writes its reply (writes carry
	// no deadline here).
	lnErr := s.stop(func(conn net.Conn) { _ = conn.SetReadDeadline(time.Now()) })
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return lnErr
	case <-ctx.Done():
		s.stop(func(conn net.Conn) { conn.Close() })
		s.wg.Wait()
		return ctx.Err()
	}
}

// Close stops accepting, closes all connections, and waits for the
// serving goroutines to finish.
func (s *Server) Close() error {
	err := s.stop(func(conn net.Conn) { conn.Close() })
	s.wg.Wait()
	return err
}

// stop applies kick to every open connection and, the first time, marks
// the server closed and closes its listener.
func (s *Server) stop(kick func(net.Conn)) error {
	s.mu.Lock()
	ln := s.listener
	s.closed, s.listener = true, nil
	for conn := range s.conns {
		kick(conn)
	}
	s.mu.Unlock()
	if ln == nil {
		return nil
	}
	return ln.Close()
}
