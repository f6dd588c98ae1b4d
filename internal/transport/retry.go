package transport

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Retry is the repository's one retrying middleware: client and proxy
// lookups (core.Service) and plsd's peer traffic both run through it.
// Each call is tried against its server up to RetryPolicy.Attempts
// times, retrying only failures that match ErrServerDown; anything else
// (a context error, a protocol error) ends the call at once, so a
// cancelled lookup stops where it is. For a lookup, a call that runs out
// of attempts surfaces as a down server and the strategy driver resumes
// with the next server in its probe order — the paper's "keep on
// selecting another random server until an operational server is
// found".
//
// The wait after failed attempt a is base·2^(a−1), capped at 1 s, then
// shortened by a random share of up to half so callers that failed
// together do not retry together; it runs on inner's Clock. With
// HedgeAfter set, an attempt not answered within that threshold (on the
// wall clock, DESIGN §5) is duplicated to the same server and the first
// reply wins.
type Retry struct {
	inner Caller
	pol   RetryPolicy
	m     *telemetry.LookupMetrics

	mu  sync.Mutex
	rng *stats.RNG
}

var _ Caller = (*Retry)(nil)

// RetryPolicy is what a caller chooses of Retry's behaviour.
type RetryPolicy struct {
	// Attempts is how many times one call is tried before its error
	// goes back to the caller. Values below 1 mean 1.
	Attempts int
	// Backoff is the wait after the first failed attempt; each further
	// failure doubles it. Zero or negative means 1 ms.
	Backoff time.Duration
	// HedgeAfter, when positive, sends a second identical request if
	// the first has not answered within this threshold. It trades
	// duplicate work for tail latency, so only idempotent requests
	// (lookups) may set it; peer updates leave it zero.
	HedgeAfter time.Duration
}

const (
	// maxBackoff caps the wait between two attempts.
	maxBackoff = time.Second
	// jitter is the largest share of a wait the random draw removes.
	jitter = 0.5
	// defaultBackoff stands in for a base ≤ 0, which would otherwise
	// never grow (0·2 = 0) and retry back to back.
	defaultBackoff = time.Millisecond
)

// backoff returns the wait after failed attempt a (1-based) for a call
// whose policy sets base, with u in [0, 1) the jitter draw. The result
// lies in [d/2, d] for d = min(base·2^(a−1), maxBackoff), so it is
// always positive and never above the cap; doubling stops at the cap,
// so no attempt count overflows time.Duration.
func backoff(base time.Duration, a int, u float64) time.Duration {
	d := base
	if d <= 0 {
		d = defaultBackoff
	}
	for ; a > 1 && d < maxBackoff; a-- {
		d *= 2
	}
	d = min(d, maxBackoff)
	return d - time.Duration(jitter*u*float64(d))
}

// NewRetry wraps inner with pol. rng draws the jitter; m, when non-nil,
// counts retries and hedges under lookup.retries, lookup.hedges_fired
// and lookup.hedges_won.
func NewRetry(inner Caller, pol RetryPolicy, rng *stats.RNG, m *telemetry.LookupMetrics) *Retry {
	if m == nil {
		m = &telemetry.LookupMetrics{}
	}
	return &Retry{inner: inner, pol: pol, m: m, rng: rng}
}

// NumServers returns the inner transport's cluster size.
func (r *Retry) NumServers() int { return r.inner.NumServers() }

// Call delegates to the inner transport, retrying ErrServerDown
// failures until the attempt budget or the context runs out.
func (r *Retry) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	for a := 1; ; a++ {
		// A context that expired during the previous backoff (or arrived
		// already cancelled) must not burn another attempt against the
		// server; surface the context error immediately.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if a > 1 {
			r.m.Retries.Inc()
		}
		reply, err := r.attempt(ctx, server, msg)
		if err == nil {
			return reply, nil
		}
		if !errors.Is(err, ErrServerDown) || a >= r.pol.Attempts {
			return nil, err
		}
		if err := ClockOf(r.inner).Sleep(ctx, backoff(r.pol.Backoff, a, r.unit())); err != nil {
			return nil, err
		}
	}
}

// unit draws one jitter value in [0, 1) under the lock.
func (r *Retry) unit() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// attempt performs one call, hedged when the policy says so.
func (r *Retry) attempt(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	if r.pol.HedgeAfter <= 0 {
		return r.inner.Call(ctx, server, msg)
	}
	type outcome struct {
		reply  wire.Message
		err    error
		hedged bool
	}
	results := make(chan outcome, 2) // buffered: the losing call must not block
	launch := func(hedged bool) {
		go func() {
			reply, err := r.inner.Call(ctx, server, msg)
			results <- outcome{reply, err, hedged}
		}()
	}
	launch(false)
	inFlight := 1
	hedge := time.NewTimer(r.pol.HedgeAfter)
	defer hedge.Stop()
	var lastErr error
	for received := 0; received < inFlight; {
		select {
		case o := <-results:
			received++
			if o.err == nil {
				if o.hedged {
					r.m.HedgesWon.Inc()
				}
				return o.reply, nil
			}
			lastErr = o.err
		case <-hedge.C:
			if inFlight == 1 {
				r.m.HedgesFired.Inc()
				launch(true)
				inFlight = 2
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}
