package selector

import (
	"context"
	"errors"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Observed is the transport middleware hook that feeds the scoreboard:
// every call's latency lands in the per-server EWMA on success, and
// every failure matching transport.ErrServerDown (genuine downs,
// chaos-injected drops and partitions, exhausted retries below it)
// extends the server's failure streak. Context expiry and protocol
// errors are attributed to neither side and recorded as nothing.
//
// Compose it below any retrying layer so each attempt is scored — an
// attempt that failed cost the scoreboard-relevant signal even if a
// later attempt succeeded.
type Observed struct {
	inner transport.Caller
	clock *transport.Clock
	sel   *Selector
}

var _ transport.Caller = (*Observed)(nil)

// Observe wraps inner so every call outcome is recorded into sel, and
// sel runs on inner's clock if that is virtual (transport.ClockOf). A
// nil selector returns inner unchanged.
func Observe(inner transport.Caller, sel *Selector) transport.Caller {
	if inner == nil {
		panic("selector: Observe requires an inner Caller")
	}
	if sel == nil {
		return inner
	}
	clock := transport.ClockOf(inner)
	if clock != nil {
		sel.mu.Lock()
		sel.clock = clock
		sel.mu.Unlock()
	}
	return &Observed{inner: inner, clock: clock, sel: sel}
}

// NumServers returns the inner transport's cluster size.
func (o *Observed) NumServers() int { return o.inner.NumServers() }

// Clock returns the clock calls are timed by, inner's.
func (o *Observed) Clock() *transport.Clock { return o.clock }

// Call delegates to the inner transport, scoring the attempt. A call to
// an open server that is due a half-open trial is that trial.
func (o *Observed) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	o.sel.startTrial(server)
	start := o.clock.Now()
	reply, err := o.inner.Call(ctx, server, msg)
	switch {
	case err == nil:
		o.sel.RecordSuccess(server, o.clock.Now().Sub(start))
	case errors.Is(err, transport.ErrServerDown):
		o.sel.RecordFailure(server)
	}
	return reply, err
}
