package core_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/transport"
)

// resilientPolicy is the lookup policy the fault-injection suite runs
// under: a hard per-lookup deadline, three attempts per probe with a
// short jittered backoff, and failover left to the strategy drivers.
var resilientPolicy = core.LookupPolicy{
	Timeout: 2 * time.Second,
	Retry:   transport.RetryPolicy{Attempts: 3, Backoff: 500 * time.Microsecond},
}

// faultSchemes pairs every placement scheme with a t that its coverage
// can meet on a 10-server cluster holding 100 entries, even with three
// non-adjacent servers failed (Fixed-20 can never exceed 20 distinct
// entries, so its feasible t sits below that cap).
var faultSchemes = []struct {
	cfg core.Config
	t   int
}{
	{core.Config{Scheme: core.FullReplication}, 60},
	{core.Config{Scheme: core.Fixed, X: 20}, 15},
	{core.Config{Scheme: core.RandomServer, X: 20}, 40},
	{core.Config{Scheme: core.RoundRobin, Y: 3}, 60},
	{core.Config{Scheme: core.Hash, Y: 2}, 40},
}

// faultService builds a seeded 10-server cluster with 100 entries
// placed under cfg, and a Service running the resilient policy.
func faultService(t *testing.T, cfg core.Config, pol core.LookupPolicy, seed uint64) (*cluster.Cluster, *core.Service) {
	t.Helper()
	cl := cluster.New(10, stats.NewRNG(seed))
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(seed+1),
		core.WithDefaultConfig(cfg),
		core.WithLookupPolicy(pol))
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	if err := svc.Place(context.Background(), "k", entry.Synthetic(100)); err != nil {
		t.Fatalf("Place: %v", err)
	}
	return cl, svc
}

// lookupWithin runs a partial lookup and fails the test if it does not
// return — success or error — inside the given wall-clock bound. This
// is the "never a hang" half of every fault scenario.
func lookupWithin(t *testing.T, svc *core.Service, key string, target int, bound time.Duration) (strategy.Result, error, time.Duration) {
	t.Helper()
	start := time.Now()
	res, err := svc.PartialLookup(context.Background(), key, target)
	elapsed := time.Since(start)
	if elapsed > bound {
		t.Fatalf("lookup took %v, bound %v — the fault path hung", elapsed, bound)
	}
	return res, err, elapsed
}

// TestFaultAcceptanceRoundRobin is the issue's acceptance scenario: a
// 10-server cluster, 20%% of servers failed, Round-Robin-3 placement.
// Every entry lives on 3 consecutive servers, so with only 2 failed the
// live set still covers all 100 entries and a feasible t must be met —
// deterministically, and within the configured deadline.
func TestFaultAcceptanceRoundRobin(t *testing.T) {
	const target = 60
	run := func() (int, int) {
		cl, svc := faultService(t, core.Config{Scheme: core.RoundRobin, Y: 3}, resilientPolicy, 42)
		cl.Fail(2)
		cl.Fail(7)
		res, err, elapsed := lookupWithin(t, svc, "k", target, resilientPolicy.Timeout)
		if err != nil {
			t.Fatalf("PartialLookup: %v", err)
		}
		if !res.Satisfied(target) {
			t.Fatalf("got %d entries, want >= %d (contacted %d)", len(res.Entries), target, res.Contacted)
		}
		_ = elapsed
		return len(res.Entries), res.Contacted
	}
	n1, c1 := run()
	n2, c2 := run()
	if n1 != n2 || c1 != c2 {
		t.Fatalf("seeded runs diverged: (%d entries, %d contacted) vs (%d, %d)", n1, c1, n2, c2)
	}
}

// TestFaultInjectionKillMinority fails three non-adjacent servers and
// checks that every scheme's coverage survives: the strategy drivers
// fail over past the dead servers and still meet the scheme's feasible
// t within the deadline.
func TestFaultInjectionKillMinority(t *testing.T) {
	for _, tc := range faultSchemes {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			cl, svc := faultService(t, tc.cfg, resilientPolicy, 11)
			for _, s := range []int{0, 4, 8} {
				cl.Fail(s)
			}
			res, err, _ := lookupWithin(t, svc, "k", tc.t, resilientPolicy.Timeout)
			if err != nil {
				t.Fatalf("PartialLookup with 3 failed: %v", err)
			}
			if !res.Satisfied(tc.t) {
				t.Fatalf("got %d entries, want >= %d (contacted %d)", len(res.Entries), tc.t, res.Contacted)
			}
		})
	}
}

// TestFaultInjectionSlowBeyondDeadline makes every server slower than
// the whole lookup deadline. No scheme can answer; each must return the
// typed partial-result error promptly instead of hanging on the first
// probe.
func TestFaultInjectionSlowBeyondDeadline(t *testing.T) {
	pol := resilientPolicy
	pol.Timeout = 60 * time.Millisecond
	for _, tc := range faultSchemes {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			cl, svc := faultService(t, tc.cfg, pol, 12)
			for i := 0; i < cl.N(); i++ {
				cl.Chaos().SetLatency(i, 300*time.Millisecond, 0)
			}
			res, err, _ := lookupWithin(t, svc, "k", tc.t, time.Second)
			if !errors.Is(err, core.ErrPartialResult) {
				t.Fatalf("err = %v, want ErrPartialResult", err)
			}
			var pe *core.PartialError
			if !errors.As(err, &pe) {
				t.Fatalf("err = %T, want *core.PartialError", err)
			}
			if pe.Got != len(res.Entries) || pe.Want != tc.t {
				t.Fatalf("PartialError{Got:%d Want:%d} disagrees with result (%d entries, want t=%d)",
					pe.Got, pe.Want, len(res.Entries), tc.t)
			}
		})
	}
}

// TestFaultInjectionPartitionedClient cuts the client off from every
// server. All probes fail as down, retries exhaust, and each scheme
// reports no live servers — quickly and without the deadline firing.
func TestFaultInjectionPartitionedClient(t *testing.T) {
	for _, tc := range faultSchemes {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			cl, svc := faultService(t, tc.cfg, resilientPolicy, 13)
			for i := 0; i < cl.N(); i++ {
				cl.Chaos().Partition(transport.ClientOrigin, i)
			}
			_, err, _ := lookupWithin(t, svc, "k", tc.t, resilientPolicy.Timeout)
			if !errors.Is(err, strategy.ErrNoLiveServers) {
				t.Fatalf("err = %v, want ErrNoLiveServers", err)
			}
			// Healing the cuts restores the lookup path.
			cl.Chaos().HealAll()
			res, err, _ := lookupWithin(t, svc, "k", tc.t, resilientPolicy.Timeout)
			if err != nil || !res.Satisfied(tc.t) {
				t.Fatalf("after HealAll: err=%v entries=%d want>=%d", err, len(res.Entries), tc.t)
			}
		})
	}
}

// TestFaultInjectionKillRecoverMidStream interleaves lookups with
// mid-stream kills and restarts: healthy → degraded (three dead, drops
// on the rest) → restarted with a slow-start penalty. The first and
// last phases must meet t; the middle phase may degrade but must never
// hang and must fail only in the two sanctioned ways.
func TestFaultInjectionKillRecoverMidStream(t *testing.T) {
	pol := resilientPolicy
	pol.Timeout = 400 * time.Millisecond
	for _, tc := range faultSchemes {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			cl, svc := faultService(t, tc.cfg, pol, 14)

			res, err, _ := lookupWithin(t, svc, "k", tc.t, pol.Timeout)
			if err != nil || !res.Satisfied(tc.t) {
				t.Fatalf("healthy phase: err=%v entries=%d want>=%d", err, len(res.Entries), tc.t)
			}

			for _, s := range []int{1, 5, 9} {
				cl.Fail(s)
			}
			for i := 0; i < cl.N(); i++ {
				cl.Chaos().SetDropRate(i, 0.2)
			}
			for i := 0; i < 5; i++ {
				res, err, _ = lookupWithin(t, svc, "k", tc.t, pol.Timeout+200*time.Millisecond)
				switch {
				case err == nil:
					// Possibly a thin answer; Satisfied is not required here.
				case errors.Is(err, core.ErrPartialResult):
				case errors.Is(err, strategy.ErrNoLiveServers):
				default:
					t.Fatalf("degraded phase lookup %d: unsanctioned error %v", i, err)
				}
			}

			for i := 0; i < cl.N(); i++ {
				cl.Chaos().SetDropRate(i, 0)
			}
			for _, s := range []int{1, 5, 9} {
				cl.Restart(s, 2, 5*time.Millisecond)
			}
			res, err, _ = lookupWithin(t, svc, "k", tc.t, pol.Timeout)
			if err != nil || !res.Satisfied(tc.t) {
				t.Fatalf("recovered phase: err=%v entries=%d want>=%d", err, len(res.Entries), tc.t)
			}
		})
	}
}

// TestFaultInjectionDeterministic replays an identical faulted scenario
// under the same seeds and requires bit-identical outcomes, pinning the
// suite's reproducibility claim: every drop, delay, and probe order
// comes from seeded RNGs.
func TestFaultInjectionDeterministic(t *testing.T) {
	scenario := func(seed uint64) string {
		pol := resilientPolicy
		cl, svc := faultService(t, core.Config{Scheme: core.RandomServer, X: 20}, pol, seed)
		cl.Fail(3)
		for i := 0; i < cl.N(); i++ {
			cl.Chaos().SetDropRate(i, 0.3)
		}
		out := ""
		for i := 0; i < 10; i++ {
			res, err := svc.PartialLookup(context.Background(), "k", 40)
			out += fmt.Sprintf("%d/%d/%v;", len(res.Entries), res.Contacted, err)
		}
		return out
	}
	if a, b := scenario(77), scenario(77); a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a, c := scenario(77), scenario(78); a == c {
		t.Fatal("different seeds produced identical fault traces")
	}
}
