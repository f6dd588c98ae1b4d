package core_test

import (
	"context"
	"errors"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// instrumentedService builds a cluster with telemetry enabled and a
// service recording lookup metrics over it.
func instrumentedService(t *testing.T, n int, opts ...core.Option) (*core.Service, *cluster.Cluster, *telemetry.TransportMetrics, *telemetry.LookupMetrics) {
	t.Helper()
	cl := cluster.New(n, stats.NewRNG(7))
	reg := telemetry.NewRegistry()
	tm := cl.EnableTelemetry(reg)
	lm := telemetry.NewLookupMetrics(reg)
	opts = append([]core.Option{core.WithSeed(3), core.WithLookupMetrics(lm)}, opts...)
	svc, err := core.NewService(cl.Caller(), opts...)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return svc, cl, tm, lm
}

func placeEntries(t *testing.T, svc *core.Service, key string, h int) {
	t.Helper()
	entries := make([]core.Entry, h)
	for i := range entries {
		entries[i] = core.Entry("v" + strconv.Itoa(i))
	}
	if err := svc.Place(context.Background(), key, entries); err != nil {
		t.Fatalf("Place: %v", err)
	}
}

// TestLookupTelemetryMatchesInjectedFaults is the e2e acceptance test:
// run lookups through the chaos middleware and check the retry and
// per-server error counters exactly match the injected fault schedule.
func TestLookupTelemetryMatchesInjectedFaults(t *testing.T) {
	const maxAttempts = 3
	svc, cl, tm, lm := instrumentedService(t, 3,
		core.WithDefaultConfig(core.Config{Scheme: core.RoundRobin, Y: 1}),
		core.WithLookupPolicy(core.LookupPolicy{Retry: transport.RetryPolicy{Attempts: maxAttempts}}))
	placeEntries(t, svc, "k", 9) // 3 entries per server under RoundRobin-1
	callsAfterPlace := tm.Calls.Values()

	// Servers 0 and 1 drop every call; only server 2 answers. A t=9
	// lookup needs all three servers, so both dead servers are probed —
	// each probe burns the full attempt budget before failing over.
	cl.Chaos().SetDropRate(0, 1)
	cl.Chaos().SetDropRate(1, 1)
	res, err := svc.PartialLookup(context.Background(), "k", 9)
	if err != nil {
		t.Fatalf("PartialLookup: %v", err)
	}
	if res.Satisfied(9) {
		t.Fatal("lookup with 2/3 servers dropped cannot be satisfied")
	}
	if len(res.Entries) != 3 {
		t.Fatalf("entries = %d, want 3 (server 2's share)", len(res.Entries))
	}

	// Every attempt against a dropped server is one recorded error.
	if got := tm.Errors.Values(); got[0] != maxAttempts || got[1] != maxAttempts || got[2] != 0 {
		t.Fatalf("errors = %v, want [%d %d 0]", got, maxAttempts, maxAttempts)
	}
	// Retries = attempts beyond the first, per dead server.
	if got := lm.Retries.Value(); got != 2*(maxAttempts-1) {
		t.Fatalf("retries = %d, want %d", got, 2*(maxAttempts-1))
	}
	// The live server answered its single probe first try.
	if got := tm.Calls.At(2).Value() - callsAfterPlace[2]; got != 1 {
		t.Fatalf("lookup calls to server 2 = %d, want 1", got)
	}
	if lm.Lookups.Value() != 1 || lm.Unsatisfied.Value() != 1 || lm.Satisfied.Value() != 0 {
		t.Fatalf("lookups=%d satisfied=%d unsatisfied=%d, want 1/0/1",
			lm.Lookups.Value(), lm.Satisfied.Value(), lm.Unsatisfied.Value())
	}
	if got := lm.AchievedT.Sum(); got != 3 {
		t.Fatalf("achieved-t sum = %d, want 3", got)
	}

	// Heal and look up again: satisfied, no new retries or errors.
	cl.Chaos().SetDropRate(0, 0)
	cl.Chaos().SetDropRate(1, 0)
	res, err = svc.PartialLookup(context.Background(), "k", 9)
	if err != nil || !res.Satisfied(9) {
		t.Fatalf("healed lookup: %d entries, err=%v", len(res.Entries), err)
	}
	if got := lm.Retries.Value(); got != 2*(maxAttempts-1) {
		t.Fatalf("healed lookup added retries: %d", got)
	}
	if lm.Satisfied.Value() != 1 || lm.Lookups.Value() != 2 {
		t.Fatalf("satisfied=%d lookups=%d, want 1/2", lm.Satisfied.Value(), lm.Lookups.Value())
	}
}

// TestLookupTelemetryHedges checks that a slow server makes the policy
// fire exactly one hedge per probe, and that won hedges stay a subset
// of fired ones. Hedging runs on the wall clock (DESIGN §5), so the
// servers are scripted ones that really take 30ms to answer.
func TestLookupTelemetryHedges(t *testing.T) {
	caller := newScriptedCaller(2, func(int, int) (wire.Message, error) {
		time.Sleep(30 * time.Millisecond)
		return okReply("v0", "v1", "v2", "v3")
	})
	lm := telemetry.NewLookupMetrics(telemetry.NewRegistry())
	svc, err := core.NewService(caller, core.WithSeed(3), core.WithLookupMetrics(lm),
		core.WithDefaultConfig(core.Config{Scheme: core.FullReplication}),
		core.WithLookupPolicy(core.LookupPolicy{Retry: transport.RetryPolicy{HedgeAfter: 2 * time.Millisecond}}))
	if err != nil {
		t.Fatal(err)
	}

	const lookups = 3
	for i := 0; i < lookups; i++ {
		res, err := svc.PartialLookup(context.Background(), "k", 4)
		if err != nil || !res.Satisfied(4) {
			t.Fatalf("lookup %d: %d entries, err=%v", i, len(res.Entries), err)
		}
	}

	// Full replication probes exactly one server per lookup; every probe
	// outlives HedgeAfter, so exactly one hedge fires per lookup.
	if got := lm.HedgesFired.Value(); got != lookups {
		t.Fatalf("hedges fired = %d, want %d", got, lookups)
	}
	if won := lm.HedgesWon.Value(); won < 0 || won > lm.HedgesFired.Value() {
		t.Fatalf("hedges won = %d, fired = %d (won must be a subset)", won, lm.HedgesFired.Value())
	}
	if got := lm.Probes.Sum(); got != lookups {
		t.Fatalf("probes sum = %d, want %d", got, lookups)
	}
}

// TestLookupTelemetryDeadlineExpired checks the deadline path: a lookup
// cut short by the policy timeout records a deadline expiry and
// surfaces ErrPartialResult.
func TestLookupTelemetryDeadlineExpired(t *testing.T) {
	svc, cl, _, lm := instrumentedService(t, 2,
		core.WithDefaultConfig(core.Config{Scheme: core.FullReplication}),
		core.WithLookupPolicy(core.LookupPolicy{Timeout: 5 * time.Millisecond}))
	placeEntries(t, svc, "k", 4)
	for i := 0; i < 2; i++ {
		cl.Chaos().SetLatency(i, 200*time.Millisecond, 0)
	}

	_, err := svc.PartialLookup(context.Background(), "k", 4)
	if !errors.Is(err, core.ErrPartialResult) {
		t.Fatalf("err = %v, want ErrPartialResult", err)
	}
	if got := lm.DeadlineExpired.Value(); got != 1 {
		t.Fatalf("deadline expired = %d, want 1", got)
	}
	if lm.Lookups.Value() != 1 || lm.Satisfied.Value() != 0 {
		t.Fatalf("lookups=%d satisfied=%d, want 1/0", lm.Lookups.Value(), lm.Satisfied.Value())
	}
}
