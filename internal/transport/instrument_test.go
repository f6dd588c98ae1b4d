package transport

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

func newTransportMetrics(n int) *telemetry.TransportMetrics {
	return telemetry.NewTransportMetrics(telemetry.NewRegistry(), "transport", n)
}

func TestInstrumentRecordsCallsAndErrors(t *testing.T) {
	tr := NewChaos(3, stats.NewRNG(1))
	for i := 0; i < 3; i++ {
		tr.Bind(i, lookupEcho{})
	}
	tm := newTransportMetrics(3)
	caller := Instrument(tr, tm)
	ctx := context.Background()

	for i := 0; i < 5; i++ {
		if _, err := caller.Call(ctx, 1, wire.Ping{}); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	tr.SetDown(2, true)
	for i := 0; i < 3; i++ {
		if _, err := caller.Call(ctx, 2, wire.Ping{}); !errors.Is(err, ErrServerDown) {
			t.Fatalf("Call to down server = %v, want ErrServerDown", err)
		}
	}

	if got := tm.Calls.Values(); got[0] != 0 || got[1] != 5 || got[2] != 3 {
		t.Fatalf("calls = %v, want [0 5 3]", got)
	}
	if got := tm.Errors.Values(); got[0] != 0 || got[1] != 0 || got[2] != 3 {
		t.Fatalf("errors = %v, want [0 0 3]", got)
	}
	if got := tm.Latency.At(1).Count(); got != 5 {
		t.Fatalf("latency count = %d, want 5", got)
	}
}

// TestInstrumentOverChaosCountsInjectedFaults is the acceptance
// criterion: a chaos-injected drop is visible as an incremented
// per-server error counter in the snapshot.
func TestInstrumentOverChaosCountsInjectedFaults(t *testing.T) {
	chaos := NewChaos(2, stats.NewRNG(7))
	for i := 0; i < 2; i++ {
		chaos.Bind(i, lookupEcho{})
	}
	chaos.SetDropRate(0, 1)
	tm := newTransportMetrics(2)
	caller := Instrument(chaos, tm)
	ctx := context.Background()

	const attempts = 4
	for i := 0; i < attempts; i++ {
		if _, err := caller.Call(ctx, 0, wire.Ping{}); !errors.Is(err, ErrServerDown) {
			t.Fatalf("dropped call = %v, want ErrServerDown", err)
		}
		if _, err := caller.Call(ctx, 1, wire.Ping{}); err != nil {
			t.Fatalf("healthy call: %v", err)
		}
	}

	if got := tm.Errors.At(0).Value(); got != attempts {
		t.Fatalf("server-0 errors = %d, want %d (every drop must count)", got, attempts)
	}
	if got := tm.Errors.At(1).Value(); got != 0 {
		t.Fatalf("server-1 errors = %d, want 0", got)
	}
	if got := tm.Calls.At(0).Value(); got != attempts {
		t.Fatalf("server-0 calls = %d, want %d", got, attempts)
	}
}

func TestClientRecordsDialsAndReuse(t *testing.T) {
	addr, _ := startServer(t)
	tm := newTransportMetrics(1)
	client := NewClient([]string{addr}, WithClientMetrics(tm))
	defer client.Close()
	ctx := context.Background()

	const calls = 6
	for i := 0; i < calls; i++ {
		if _, err := client.Call(ctx, 0, wire.Ping{}); err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
	}

	// The first call dials the server's one connection; every later
	// call reuses it.
	if got := tm.Dials.At(0).Value(); got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}
	if reuses := calls - tm.Dials.At(0).Value(); reuses != calls-1 {
		t.Fatalf("reuses (calls - dials) = %d, want %d", reuses, calls-1)
	}
	if got := tm.DialErrors.At(0).Value(); got != 0 {
		t.Fatalf("dial errors = %d, want 0", got)
	}
}

// refusedAddr reserves an address and closes it so nothing listens there.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// TestClientDialFailureCountsAsServerError: the bare client charges a
// refused connection to the server's dial counters; the error counter
// belongs to whoever counts calls (Instrument, below).
func TestClientDialFailureCountsAsServerError(t *testing.T) {
	tm := newTransportMetrics(1)
	client := NewClient([]string{refusedAddr(t)},
		WithTimeout(200*time.Millisecond),
		WithClientMetrics(tm))
	defer client.Close()

	if _, err := client.Call(context.Background(), 0, wire.Ping{}); !errors.Is(err, ErrServerDown) {
		t.Fatalf("Call to dead addr = %v, want ErrServerDown", err)
	}

	if got := tm.Dials.At(0).Value(); got != 1 {
		t.Fatalf("dials = %d, want 1", got)
	}
	if got := tm.DialErrors.At(0).Value(); got != 1 {
		t.Fatalf("dial errors = %d, want 1", got)
	}
	if got := tm.Errors.At(0).Value(); got != 0 {
		t.Fatalf("errors = %d, want 0 (no call was counted at this level)", got)
	}
}

// TestInstrumentAndClientDoNotDoubleCount wires the full production
// stack — Instrument over a metered Client — and checks the two layers
// keep disjoint responsibilities on a shared metrics bundle, for calls
// that succeed (server 0) and for one whose dial is refused (server 1).
func TestInstrumentAndClientDoNotDoubleCount(t *testing.T) {
	addr, _ := startServer(t)
	tm := newTransportMetrics(2)
	client := NewClient([]string{addr, refusedAddr(t)},
		WithTimeout(200*time.Millisecond), WithClientMetrics(tm))
	defer client.Close()
	caller := Instrument(client, tm)
	ctx := context.Background()

	const calls = 4
	for i := 0; i < calls; i++ {
		if _, err := caller.Call(ctx, 0, wire.Ping{}); err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
	}

	if got := tm.Calls.At(0).Value(); got != calls {
		t.Fatalf("calls = %d, want %d", got, calls)
	}
	if reuses := tm.Calls.At(0).Value() - tm.Dials.At(0).Value(); reuses != calls-1 {
		t.Fatalf("reuses (calls - dials) = %d, want %d: one dial, then the live connection",
			reuses, calls-1)
	}
	if got := tm.Errors.At(0).Value(); got != 0 {
		t.Fatalf("errors = %d, want 0", got)
	}

	if _, err := caller.Call(ctx, 1, wire.Ping{}); !errors.Is(err, ErrServerDown) {
		t.Fatalf("Call to dead addr = %v, want ErrServerDown", err)
	}
	if c, e, d := tm.Calls.At(1).Value(), tm.Errors.At(1).Value(), tm.DialErrors.At(1).Value(); c != 1 || e != 1 || d != 1 {
		t.Fatalf("refused dial: calls %d, errors %d, dial_errors %d, want 1, 1, 1 (one failed call is one error)", c, e, d)
	}
}

func TestInstrumentNilMetricsReturnsInner(t *testing.T) {
	tr := NewChaos(1, stats.NewRNG(1))
	if got := Instrument(tr, nil); got != Caller(tr) {
		t.Fatalf("Instrument(inner, nil) = %T, want the inner caller", got)
	}
}
