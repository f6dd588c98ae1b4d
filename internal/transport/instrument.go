package transport

import (
	"context"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Instrumented is a telemetry middleware over any Caller: it records
// every call attempt, its latency, and its outcome into per-server
// counters and histograms. It composes with Chaos (wrap the network
// to count injected faults as the per-server errors they simulate) and
// with Retry above it (each attempt or hedge Retry issues is a distinct
// recorded call, because each costs the network and the server).
//
// The recording path is allocation-free, so instrumenting a transport
// does not perturb the latencies it measures.
type Instrumented struct {
	inner Caller
	clock *Clock
	m     *telemetry.TransportMetrics
}

var _ Caller = (*Instrumented)(nil)

// Instrument wraps inner so every call is recorded into m. A nil m
// returns inner unchanged.
func Instrument(inner Caller, m *telemetry.TransportMetrics) Caller {
	if inner == nil {
		panic("transport: Instrument requires an inner Caller")
	}
	if m == nil {
		return inner
	}
	return &Instrumented{inner: inner, clock: ClockOf(inner), m: m}
}

// NumServers returns the inner transport's cluster size.
func (t *Instrumented) NumServers() int { return t.inner.NumServers() }

// Clock returns the clock calls are timed by, inner's.
func (t *Instrumented) Clock() *Clock { return t.clock }

// Call delegates to the inner transport, timing the attempt and
// recording its outcome against the target server.
func (t *Instrumented) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	start := t.clock.Now()
	reply, err := t.inner.Call(ctx, server, msg)
	t.m.Calls.At(server).Inc()
	t.m.Latency.At(server).ObserveDuration(t.clock.Now().Sub(start))
	if err != nil {
		t.m.Errors.At(server).Inc()
	}
	return reply, err
}
