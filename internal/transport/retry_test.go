package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// downCaller always reports its server down and counts attempts.
type downCaller struct {
	n     int
	calls int
}

func (c *downCaller) NumServers() int { return c.n }

func (c *downCaller) Call(ctx context.Context, server int, _ wire.Message) (wire.Message, error) {
	c.calls++
	return nil, fmt.Errorf("%w: server %d", ErrServerDown, server)
}

// newRetry is NewRetry with a fixed jitter seed, no hedging and no
// counters.
func newRetry(inner Caller, attempts int, base time.Duration) *Retry {
	return NewRetry(inner, RetryPolicy{Attempts: attempts, Backoff: base}, stats.NewRNG(1), nil)
}

// A zero (or negative) base backoff would stay zero forever (0*2 == 0),
// making the retry loop hammer the server with no pause at all. Such a
// base means defaultBackoff instead, so every gap between attempts is
// at least half of it.
func TestRetryZeroBaseDoesNotSpin(t *testing.T) {
	for _, base := range []time.Duration{0, -time.Second} {
		inner := &downCaller{n: 1}
		r := newRetry(inner, 4, base)
		start := time.Now()
		_, err := r.Call(context.Background(), 0, wire.Ping{})
		elapsed := time.Since(start)
		if !errors.Is(err, ErrServerDown) {
			t.Fatalf("base %v: err = %v, want ErrServerDown", base, err)
		}
		if inner.calls != 4 {
			t.Fatalf("base %v: %d attempts, want 4", base, inner.calls)
		}
		// Three backoffs doubling from 1ms (1+2+4 ms), each cut by at
		// most half by the jitter.
		if elapsed < 3500*time.Microsecond {
			t.Fatalf("base %v: 4 attempts finished in %v; backoff floor not applied", base, elapsed)
		}
	}
}

// Every wait, for any base from nothing to an hour and any attempt up
// to 128, is positive and at most maxBackoff: a doubling carried past
// the int64 range of time.Duration would wrap negative and turn every
// later wait into a back-to-back retry.
func TestRetryDelayCapNoOverflow(t *testing.T) {
	bases := []time.Duration{-time.Second, 0, 1, time.Microsecond, 200 * time.Microsecond,
		25 * time.Millisecond, 50 * time.Millisecond, maxBackoff - 1, maxBackoff, time.Minute, time.Hour}
	rng := stats.NewRNG(42)
	for range 200 {
		bases = append(bases, time.Duration(rng.Uint64N(uint64(time.Hour)+1)))
	}
	for _, base := range bases {
		for a := 1; a <= 128; a++ {
			for _, u := range []float64{0, rng.Float64(), 0.999999} {
				if d := backoff(base, a, u); d <= 0 || d > maxBackoff {
					t.Fatalf("base %v attempt %d u=%.6f: backoff %v outside (0, %v]", base, a, u, d, maxBackoff)
				}
			}
		}
	}
}

// TestRetryBackoffProperties draws random bases and asserts the
// schedule invariants: the un-jittered wait never shrinks from one
// attempt to the next and stays at or under maxBackoff, and every
// jittered wait lies within [d/2, d] of its un-jittered value d.
func TestRetryBackoffProperties(t *testing.T) {
	rng := stats.NewRNG(42)
	for trial := 0; trial < 500; trial++ {
		base := time.Duration(1+rng.IntN(100)) * time.Millisecond
		prev := time.Duration(0)
		for a := 1; a <= 12; a++ {
			full := backoff(base, a, 0)
			if full < prev {
				t.Fatalf("trial %d: base %v: un-jittered backoff shrank at attempt %d: %v < %v",
					trial, base, a, full, prev)
			}
			if full > maxBackoff {
				t.Fatalf("trial %d: base %v attempt %d: backoff %v exceeds cap %v", trial, base, a, full, maxBackoff)
			}
			prev = full
			for draw := 0; draw < 8; draw++ {
				u := rng.Float64()
				if d := backoff(base, a, u); d < full/2 || d > full {
					t.Fatalf("trial %d: base %v attempt %d u=%.3f: backoff %v outside [%v, %v]",
						trial, base, a, u, d, full/2, full)
				}
			}
		}
	}
}

// TestPropertyBackoffJitterBounds checks the delay rule itself: the
// first wait is the base (a base ≤ 0 meaning defaultBackoff), each
// later one doubles the one before until the cap, and a jitter draw u
// in [0, 1) only shortens a wait, never below half of it.
func TestPropertyBackoffJitterBounds(t *testing.T) {
	check := func(baseRaw int32, uRaw uint8, attemptRaw uint8) bool {
		base := time.Duration(baseRaw) * time.Microsecond
		a := 1 + int(attemptRaw%128)
		u := float64(uRaw) / 256 // [0, 1)

		first := base
		if first <= 0 {
			first = defaultBackoff
		}
		want := min(first, maxBackoff)
		if a > 1 {
			want = min(2*backoff(base, a-1, 0), maxBackoff)
		}
		full, jittered := backoff(base, a, 0), backoff(base, a, u)
		if full != want {
			t.Logf("base %v attempt %d: un-jittered backoff %v, want %v", base, a, full, want)
			return false
		}
		if jittered < full/2 || jittered > full {
			t.Logf("base %v attempt %d u=%v: jittered %v outside [%v, %v]", base, a, u, jittered, full/2, full)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// A context cancelled before a retry attempt must surface immediately
// without burning another attempt against the server.
func TestRetryCancelledContextBurnsNoAttempt(t *testing.T) {
	inner := &downCaller{n: 1}
	r := newRetry(inner, 5, time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Call(ctx, 0, wire.Ping{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if inner.calls != 0 {
		t.Fatalf("%d attempts dispatched on a dead context, want 0", inner.calls)
	}
}

// Cancellation arriving mid-backoff must end the call promptly, not
// after the remaining attempt budget plays out.
func TestRetryCancelMidBackoffReturnsPromptly(t *testing.T) {
	inner := &downCaller{n: 1}
	r := newRetry(inner, 10, 100*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := r.Call(ctx, 0, wire.Ping{})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// With a 100ms base and 10 attempts the full budget is >3s; the
	// cancel at 20ms has to cut the first backoff (50–100ms) short.
	if elapsed > time.Second {
		t.Fatalf("call returned after %v; cancellation did not interrupt backoff", elapsed)
	}
	if inner.calls != 1 {
		t.Fatalf("%d attempts, want exactly 1 before the cancel", inner.calls)
	}
}
