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

	"repro/internal/wire"
)

// Frame format: a 4-byte big-endian body length, then the body
// wire.AppendFrameV2 lays out — marker, 8-byte request id, encoded
// message. The Server and the multiplexed Client in mux.go write frames
// with encodeFrame and read them with a frameReader, so both ends
// enforce the same bounds.

// maxRetainedBuf bounds the capacity of a buffer kept across frames: a
// connection's read buffer and the pooled encode buffers. A frame may
// be as large as wire.MaxFrameBody, but one such frame must not pin
// that much memory per connection and per pool slot afterwards.
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

// next reads one frame. The returned payload aliases the reader's
// buffer and is valid until the following call.
func (fr *frameReader) next() (wire.FrameBody, error) {
	if cap(fr.body) > maxRetainedBuf {
		fr.body = nil // before the wait for the next frame, however long
	}
	if _, err := io.ReadFull(fr.br, fr.hdr[:]); err != nil {
		return wire.FrameBody{}, fmt.Errorf("transport: read: %w", err)
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n == 0 || n > wire.MaxFrameBody {
		return wire.FrameBody{}, fmt.Errorf("transport: bad frame length %d", n)
	}
	if cap(fr.body) < int(n) {
		fr.body = make([]byte, n)
	}
	fr.body = fr.body[:n]
	if _, err := io.ReadFull(fr.br, fr.body); err != nil {
		return wire.FrameBody{}, fmt.Errorf("transport: read frame body: %w", err)
	}
	fb, err := wire.ParseFrameBody(fr.body)
	if err != nil {
		return wire.FrameBody{}, fmt.Errorf("transport: parse frame: %w", err)
	}
	return fb, nil
}

// encodeFrame encodes msg as one frame into a pooled buffer. A frame
// the peer's frameReader would refuse — and drop the connection over,
// failing every other call in flight on it — is refused here instead,
// with an error matching wire.ErrOversized.
func encodeFrame(id uint64, msg wire.Message) (*[]byte, error) {
	buf := getFrameBuf()
	*buf = wire.AppendFrameV2((*buf)[:0], id, msg)
	if n := len(*buf) - 4; n > wire.MaxFrameBody {
		putFrameBuf(buf)
		return nil, fmt.Errorf("transport: %w: %T frame body of %d bytes exceeds %d",
			wire.ErrOversized, msg, n, wire.MaxFrameBody)
	}
	return buf, nil
}

// maxInflightPerConn bounds the handler goroutines a single connection
// may have running at once. The bound is per connection, not global: it
// stops one pipelining peer from monopolizing the scheduler while
// leaving unrelated connections untouched.
const maxInflightPerConn = 256

// Server accepts TCP connections and serves a Handler. Every request
// frame is dispatched to its own handler goroutine (bounded by
// maxInflightPerConn) and each reply is tagged with the id of the
// request it answers, so replies may overtake slow requests instead of
// queueing behind them. A peer that sends a malformed frame is cut off.
type Server struct {
	handler Handler

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

// NewServer returns a server for the given handler.
func NewServer(h Handler) *Server {
	return &Server{handler: h, conns: make(map[net.Conn]struct{})}
}

// Listen binds to addr (e.g. "127.0.0.1:0") and begins accepting
// connections in a background goroutine, returning the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
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
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// inflight must drain before the deferred conn.Close above runs
	// (defers are LIFO): a read-deadline kick from Shutdown breaks the
	// read loop, but handlers already running still get their replies
	// written.
	var (
		wmu      sync.Mutex
		inflight sync.WaitGroup
		sem      = make(chan struct{}, maxInflightPerConn)
	)
	defer inflight.Wait()

	fr := newFrameReader(conn)
	for {
		fb, err := fr.next()
		if err != nil {
			return
		}
		// Decode copies into a fresh arena, so the reader's buffer is
		// free for reuse the moment it returns — even while handlers
		// still run.
		msg, err := wire.Decode(fb.Payload)
		if err != nil {
			return
		}
		sem <- struct{}{}
		inflight.Add(1)
		go func(id uint64, msg wire.Message) {
			defer inflight.Done()
			defer func() { <-sem }()
			reply := s.handler.Handle(context.Background(), msg)
			if reply == nil {
				reply = wire.Ack{}
			}
			buf, err := encodeFrame(id, reply)
			if err != nil {
				// Answer with an error the caller can read; a short Ack
				// always fits, so its encode error is not checked.
				buf, _ = encodeFrame(id, wire.Ack{Err: err.Error()})
			}
			wmu.Lock()
			_, werr := conn.Write(*buf)
			wmu.Unlock()
			putFrameBuf(buf)
			if werr != nil {
				// The peer is gone; the read loop will notice too. Replies
				// already written stay valid, this one is lost with the conn.
				conn.Close()
			}
		}(fb.ID, msg)
	}
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
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for conn := range s.conns {
		// Expire reads only: a goroutine blocked waiting for the next
		// request fails out immediately, while one mid-handle still
		// writes its reply (writes carry no deadline here).
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	var lnErr error
	if ln != nil {
		lnErr = ln.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return lnErr
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
		return ctx.Err()
	}
}

// Close stops accepting, closes all connections, and waits for the
// serving goroutines to finish.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// getFrameBuf and putFrameBuf pool frame-encoding scratch buffers
// shared by the server's write path and the multiplexed client.
var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(b *[]byte) {
	if cap(*b) > maxRetainedBuf {
		return // grown for a large one-off; let the GC take it
	}
	framePool.Put(b)
}
