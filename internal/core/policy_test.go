package core_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// scriptedCaller is a fake transport whose per-call behavior is decided
// by a script function receiving the 1-based call count for the target
// server. It lets the policy tests count attempts exactly.
type scriptedCaller struct {
	n      int
	script func(server, call int) (wire.Message, error)

	mu    sync.Mutex
	calls map[int]int
}

func newScriptedCaller(n int, script func(server, call int) (wire.Message, error)) *scriptedCaller {
	return &scriptedCaller{n: n, script: script, calls: make(map[int]int)}
}

func (c *scriptedCaller) NumServers() int { return c.n }

func (c *scriptedCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.calls[server]++
	call := c.calls[server]
	c.mu.Unlock()
	return c.script(server, call)
}

func (c *scriptedCaller) callCount(server int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls[server]
}

func (c *scriptedCaller) totalCalls() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := 0
	for _, n := range c.calls {
		total += n
	}
	return total
}

func downErr(server int) error {
	return fmt.Errorf("%w: scripted server %d", transport.ErrServerDown, server)
}

func okReply(entries ...string) (wire.Message, error) {
	return wire.LookupReply{Entries: entries}, nil
}

func policyService(t *testing.T, caller transport.Caller, pol core.LookupPolicy) *core.Service {
	t.Helper()
	svc, err := core.NewService(caller,
		core.WithSeed(1),
		core.WithDefaultConfig(core.Config{Scheme: core.FullReplication}),
		core.WithLookupPolicy(pol))
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return svc
}

// TestPolicyAttemptBudget checks the retry count property over a range
// of budgets: a server that always drops is tried exactly Attempts
// times per probe, and a server that recovers after f failures is
// called exactly min(f+1, Attempts) times.
func TestPolicyAttemptBudget(t *testing.T) {
	for _, maxAttempts := range []int{1, 2, 3, 5, 8} {
		for _, failures := range []int{0, 1, 2, 4, 10} {
			caller := newScriptedCaller(1, func(server, call int) (wire.Message, error) {
				if call <= failures {
					return nil, downErr(server)
				}
				return okReply("a")
			})
			svc := policyService(t, caller, core.LookupPolicy{
				Retry: transport.RetryPolicy{Attempts: maxAttempts, Backoff: 10 * time.Microsecond},
			})
			res, err := svc.PartialLookup(context.Background(), "k", 1)
			want := failures + 1
			if want > maxAttempts {
				want = maxAttempts
			}
			if got := caller.callCount(0); got != want {
				t.Fatalf("maxAttempts=%d failures=%d: %d calls, want %d", maxAttempts, failures, got, want)
			}
			if failures < maxAttempts {
				if err != nil || !res.Satisfied(1) {
					t.Fatalf("maxAttempts=%d failures=%d: lookup failed (err=%v)", maxAttempts, failures, err)
				}
			} else if err == nil {
				t.Fatalf("maxAttempts=%d failures=%d: lookup succeeded, want exhausted budget", maxAttempts, failures)
			}
		}
	}
}

// TestPolicyCancelStopsRetries checks that a cancelled context halts
// the retry loop immediately: no further attempts are issued and the
// lookup returns promptly even though the backoff schedule would have
// slept for minutes.
func TestPolicyCancelStopsRetries(t *testing.T) {
	caller := newScriptedCaller(1, func(server, call int) (wire.Message, error) {
		return nil, downErr(server)
	})
	svc := policyService(t, caller, core.LookupPolicy{
		// The first backoff alone (at the 1s cap) outlasts the cancel.
		Retry: transport.RetryPolicy{Attempts: 100, Backoff: time.Minute},
	})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := svc.PartialLookup(ctx, "k", 1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("lookup succeeded against an always-down server")
	}
	if !errors.Is(err, core.ErrPartialResult) {
		t.Fatalf("err = %v, want ErrPartialResult (cancelled before t was met)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v to stop retries", elapsed)
	}
	if got := caller.callCount(0); got != 1 {
		t.Fatalf("%d attempts issued, want 1 (cancel must stop the retry loop)", got)
	}
}

// TestPolicyDeadlinePartialResult checks graceful degradation: when the
// per-lookup deadline expires mid-sequence, the service returns the
// entries gathered so far plus a typed *PartialError.
func TestPolicyDeadlinePartialResult(t *testing.T) {
	// Server 0 answers instantly with 2 entries; every other server
	// blocks until the deadline has passed.
	caller := newScriptedCaller(4, func(server, call int) (wire.Message, error) {
		if server == 0 {
			return okReply("a", "b")
		}
		time.Sleep(80 * time.Millisecond)
		return okReply("c", "d")
	})
	svc, err := core.NewService(caller,
		core.WithSeed(1),
		core.WithDefaultConfig(core.Config{Scheme: core.RandomServer, X: 2}),
		core.WithLookupPolicy(core.LookupPolicy{Timeout: 120 * time.Millisecond}))
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	res, err := svc.PartialLookup(context.Background(), "k", 8)
	if !errors.Is(err, core.ErrPartialResult) {
		t.Fatalf("err = %v, want ErrPartialResult", err)
	}
	var pe *core.PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *core.PartialError", err)
	}
	if pe.Want != 8 || pe.Got != len(res.Entries) {
		t.Fatalf("PartialError{Got:%d Want:%d} disagrees with result (%d entries)", pe.Got, pe.Want, len(res.Entries))
	}
	if len(res.Entries) == 0 {
		t.Fatal("partial result lost the entries gathered before the deadline")
	}
}

// TestPolicyHedgingCutsTailLatency scripts a server whose first answer
// is pathologically slow and whose second is instant; with hedging the
// lookup returns fast, and exactly two calls are issued.
func TestPolicyHedgingCutsTailLatency(t *testing.T) {
	release := make(chan struct{})
	caller := newScriptedCaller(1, func(server, call int) (wire.Message, error) {
		if call == 1 {
			<-release // straggler: blocks until the test ends
			return okReply("slow")
		}
		return okReply("fast")
	})
	defer close(release)
	svc := policyService(t, caller, core.LookupPolicy{Retry: transport.RetryPolicy{HedgeAfter: 15 * time.Millisecond}})
	start := time.Now()
	res, err := svc.PartialLookup(context.Background(), "k", 1)
	elapsed := time.Since(start)
	if err != nil || !res.Satisfied(1) {
		t.Fatalf("hedged lookup failed: err=%v entries=%d", err, len(res.Entries))
	}
	if string(res.Entries[0]) != "fast" {
		t.Fatalf("got %q, want the hedged reply", res.Entries[0])
	}
	if elapsed > 3*time.Second {
		t.Fatalf("hedged lookup took %v; hedge did not fire", elapsed)
	}
	if got := caller.callCount(0); got != 2 {
		t.Fatalf("%d calls issued, want 2 (primary + hedge)", got)
	}
}
