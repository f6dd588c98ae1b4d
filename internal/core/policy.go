// Lookup resilience policy: per-lookup deadlines, bounded retries with
// exponential backoff and jitter, and optional hedged requests. The
// policy wraps the transport below the strategy drivers, so the
// per-scheme probe orders (and their failover iteration) are untouched:
// a probe that exhausts its retries surfaces as a down server and the
// driver resumes with the next server in its probe order.
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ErrPartialResult is matched (via errors.Is) by the typed *PartialError
// that PartialLookup returns when the target answer size cannot be met
// before the lookup deadline. The accompanying Result still carries
// every entry gathered so far — graceful degradation, not data loss.
var ErrPartialResult = errors.New("core: partial result")

// PartialError reports a lookup cut short by its deadline (or by
// cancellation) before reaching the target answer size.
type PartialError struct {
	Key   string
	Got   int   // entries retrieved before the deadline
	Want  int   // the lookup's target answer size t
	Cause error // the context error (or transport error) that ended the lookup
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("core: partial result for %q: %d of %d entries before deadline: %v",
		e.Key, e.Got, e.Want, e.Cause)
}

func (e *PartialError) Is(target error) bool { return target == ErrPartialResult }

func (e *PartialError) Unwrap() error { return e.Cause }

// LookupPolicy configures the resilience of the client lookup path.
// The zero value preserves the original behavior: no deadline, one
// attempt per probe, no hedging.
type LookupPolicy struct {
	// Timeout bounds one PartialLookup end to end (all probes, retries,
	// and backoff included). Zero means no deadline beyond the caller's
	// context.
	Timeout time.Duration
	// MaxAttempts is the number of times one probe is tried against its
	// server before the driver fails over to the next server in the
	// strategy's probe order. Values below 1 mean 1 (no retries).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it, capped at MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the per-retry delay. Zero means no cap.
	MaxBackoff time.Duration
	// Jitter randomizes each backoff delay within [(1-Jitter)·d, d],
	// de-synchronizing retry storms. It is clamped to [0, 1].
	Jitter float64
	// HedgeAfter, when positive, issues a second identical request to
	// the same server if the first has not answered within this
	// threshold; the first reply wins. This trades duplicate work for
	// tail latency, so reserve it for idempotent probes (lookups are).
	HedgeAfter time.Duration
}

// active reports whether the policy changes any per-call behavior
// (retries or hedging); Timeout is handled by the service.
func (p LookupPolicy) active() bool {
	return p.MaxAttempts > 1 || p.HedgeAfter > 0
}

// attempts returns the effective per-probe attempt budget.
func (p LookupPolicy) attempts() int {
	if p.MaxAttempts < 1 {
		return 1
	}
	return p.MaxAttempts
}

// Backoff returns the delay to wait after the given failed attempt
// (1-based), with u in [0, 1) supplying the jitter draw. It is a pure
// function so retry schedules are reproducible and testable: the
// un-jittered delay doubles from BaseBackoff, caps at
// MaxBackoff, and jitter only ever shortens a delay (by at most
// Jitter·delay), so the jittered value stays within
// [(1-Jitter)·delay, delay].
func (p LookupPolicy) Backoff(attempt int, u float64) time.Duration {
	if p.BaseBackoff <= 0 || attempt < 1 {
		return 0
	}
	d := float64(p.BaseBackoff)
	maxB := float64(p.MaxBackoff)
	for i := 1; i < attempt; i++ {
		d *= 2
		if maxB > 0 && d >= maxB {
			d = maxB
			break
		}
	}
	if maxB > 0 && d > maxB {
		d = maxB
	}
	jitter := p.Jitter
	if jitter < 0 {
		jitter = 0
	}
	if jitter > 1 {
		jitter = 1
	}
	if u < 0 {
		u = 0
	}
	if u >= 1 {
		u = 0
	}
	d *= 1 - jitter*u
	return time.Duration(d)
}

// policyCaller wraps a transport.Caller with the retry/hedging half of
// a LookupPolicy. Deadlines are applied by the Service before the
// strategy driver runs, so the whole probe sequence shares one budget.
type policyCaller struct {
	inner transport.Caller
	pol   LookupPolicy
	m     *telemetry.LookupMetrics // nil when the service is uninstrumented

	mu  sync.Mutex
	rng *stats.RNG
}

var _ transport.Caller = (*policyCaller)(nil)

func (pc *policyCaller) NumServers() int { return pc.inner.NumServers() }

// unit draws one jitter value in [0, 1) under the lock.
func (pc *policyCaller) unit() float64 {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return pc.rng.Float64()
}

// Call tries the server up to MaxAttempts times, backing off between
// attempts, and hedges each attempt when HedgeAfter is set. Only
// failures matching transport.ErrServerDown are retried — anything
// else (context expiry, protocol errors) aborts immediately so a
// cancelled lookup stops at once.
func (pc *policyCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	attempts := pc.pol.attempts()
	var lastErr error
	for a := 1; a <= attempts; a++ {
		if a > 1 {
			pc.m.RecordRetry()
		}
		reply, err := pc.callOnce(ctx, server, msg)
		if err == nil {
			return reply, nil
		}
		if !errors.Is(err, transport.ErrServerDown) {
			return nil, err
		}
		lastErr = err
		if a == attempts {
			break
		}
		if err := sleepCtx(ctx, pc.pol.Backoff(a, pc.unit())); err != nil {
			return nil, err
		}
	}
	return nil, lastErr
}

// callOnce performs one (possibly hedged) call.
func (pc *policyCaller) callOnce(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	if pc.pol.HedgeAfter <= 0 {
		return pc.inner.Call(ctx, server, msg)
	}
	type outcome struct {
		reply  wire.Message
		err    error
		hedged bool
	}
	results := make(chan outcome, 2) // buffered: the losing call must not block
	launch := func(hedged bool) {
		go func() {
			reply, err := pc.inner.Call(ctx, server, msg)
			results <- outcome{reply, err, hedged}
		}()
	}
	launch(false)
	inFlight := 1
	hedge := time.NewTimer(pc.pol.HedgeAfter)
	defer hedge.Stop()
	var lastErr error
	for received := 0; received < inFlight; {
		select {
		case r := <-results:
			received++
			if r.err == nil {
				if r.hedged {
					pc.m.RecordHedgeWon()
				}
				return r.reply, nil
			}
			lastErr = r.err
		case <-hedge.C:
			if inFlight == 1 {
				pc.m.RecordHedgeFired()
				launch(true)
				inFlight = 2
			}
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// sleepCtx waits for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}
