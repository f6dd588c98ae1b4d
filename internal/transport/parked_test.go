package transport

import (
	"context"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
)

// detachEcho detaches every Lookup and answers it at once; Pings are
// answered inline.
type detachEcho struct{}

func (detachEcho) Handle(ctx context.Context, msg wire.Message) wire.Message {
	if _, ok := msg.(wire.Lookup); !ok {
		return wire.Ack{}
	}
	Detach(ctx)
	return wire.LookupReply{}
}

// lookups returns n Lookup messages.
func lookups(n int) []wire.Message {
	msgs := make([]wire.Message, n)
	for i := range msgs {
		msgs[i] = wire.Lookup{Key: "k", T: 1}
	}
	return msgs
}

// readerGoroutines counts the live goroutines running a connection's
// readLoop, reading or parked.
func readerGoroutines() int {
	buf := make([]byte, 64<<10)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "transport.(*serverConn).readLoop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestDetachReusesParkedReader: requests that detach one after another
// on one connection are served by two goroutines taking turns — the one
// the connection began with and the one the first Detach started — not
// by one new goroutine each.
func TestDetachReusesParkedReader(t *testing.T) {
	const n = 1000
	far, _, m := servePipe(t, detachEcho{})
	fr := newFrameReader(far)
	for i := 0; i < n; i++ {
		if _, err := far.Write(frames(t, wire.Lookup{Key: "k", T: 1})); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
		readIDs(t, far, fr, 1)
	}
	if got := m.Detached.Value(); got != n {
		t.Fatalf("%d requests detached, want %d", got, n)
	}
	if got := m.ReadersStarted.Value(); got != 2 {
		t.Errorf("%d sequential detaching requests started %d reader goroutines, want 2", n, got)
	}
}

// TestParkedReadersBounded: a burst of maxInflightPerConn handlers
// detached at once leaves maxParkedPerConn goroutines parked on the
// connection, not one per handler, and those do serve what detaches next.
func TestParkedReadersBounded(t *testing.T) {
	h := parkingEcho{parked: new(atomic.Int64), release: make(chan struct{})}
	far, _, m := servePipe(t, h)
	waitFor(t, "the connection's reader to be alone", func() bool { return readerGoroutines() == 1 })
	base := runtime.NumGoroutine()

	burst := frames(t, lookups(maxInflightPerConn)...)
	wrote := make(chan error, 1)
	go func() {
		_, err := far.Write(burst)
		wrote <- err
	}()
	waitFor(t, "every handler to detach", func() bool { return h.parked.Load() == maxInflightPerConn })
	if err := <-wrote; err != nil {
		t.Fatalf("Write: %v", err)
	}
	close(h.release)
	fr := newFrameReader(far)
	readIDs(t, far, fr, maxInflightPerConn)

	// The reader and the parked are what is left of the burst.
	waitFor(t, "the burst's goroutines to exit", func() bool { return readerGoroutines() <= 1+maxParkedPerConn })
	time.Sleep(20 * time.Millisecond) // the parked stay parked
	if got := readerGoroutines(); got != 1+maxParkedPerConn {
		t.Errorf("%d goroutines on the connection after the burst, want the reader and %d parked", got, maxParkedPerConn)
	}
	waitFor(t, "the goroutine count to settle", func() bool { return runtime.NumGoroutine() <= base+maxParkedPerConn })

	started := m.ReadersStarted.Value()
	for i := 0; i < 2*maxParkedPerConn; i++ {
		if _, err := far.Write(frames(t, wire.Lookup{Key: "k", T: 1})); err != nil {
			t.Fatalf("Write: %v", err)
		}
		readIDs(t, far, fr, 1)
	}
	if got := m.ReadersStarted.Value(); got != started {
		t.Errorf("requests after the burst started %d goroutines with %d parked", got-started, maxParkedPerConn)
	}
}

// TestCloseAndShutdownReleaseParkedReaders: Close and Shutdown return
// with goroutines parked on a connection, and none of the connection's
// goroutines outlives either.
func TestCloseAndShutdownReleaseParkedReaders(t *testing.T) {
	stops := map[string]func(*Server) error{
		"Close": (*Server).Close,
		"Shutdown": func(s *Server) error {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			return s.Shutdown(ctx)
		},
	}
	for name, stop := range stops {
		t.Run(name, func(t *testing.T) {
			// A goroutine that has told its server's WaitGroup it is done is
			// still on the stack dump for an instant.
			waitFor(t, "earlier servers' goroutines to be gone", func() bool { return readerGoroutines() == 0 })
			const burst = 4
			h := parkingEcho{parked: new(atomic.Int64), release: make(chan struct{})}
			near, far := net.Pipe()
			defer far.Close()
			srv := NewServer(h)
			if !srv.serveConn(near) {
				t.Fatal("fresh server refused a connection")
			}
			stream := frames(t, lookups(burst)...)
			go func() { _, _ = far.Write(stream) }() // a failed write shows as handlers that never detach
			waitFor(t, "every handler to detach", func() bool { return h.parked.Load() == burst })
			close(h.release)
			readIDs(t, far, newFrameReader(far), burst)
			waitFor(t, "the finished handlers to park", func() bool { return readerGoroutines() == 1+burst })

			stopped := make(chan error, 1)
			go func() { stopped <- stop(srv) }()
			select {
			case err := <-stopped:
				if err != nil {
					t.Errorf("%s: %v", name, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s did not return with %d goroutines parked", name, burst)
			}
			waitFor(t, "the connection's goroutines to be gone after "+name, func() bool { return readerGoroutines() == 0 })
		})
	}
}
