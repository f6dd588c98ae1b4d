package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// ackOnlyHandler replies to every message with an empty Ack.
type ackOnlyHandler struct{}

func (ackOnlyHandler) Handle(ctx context.Context, msg wire.Message) wire.Message { return wire.Ack{} }

func newChaosPair(t *testing.T, n int, seed uint64) (*Chaos, *Inproc) {
	t.Helper()
	tr := NewInproc(n)
	for i := 0; i < n; i++ {
		tr.Bind(i, ackOnlyHandler{})
	}
	return NewChaos(tr, stats.NewRNG(seed)), tr
}

func TestChaosPassThrough(t *testing.T) {
	ch, tr := newChaosPair(t, 3, 1)
	for i := 0; i < 3; i++ {
		reply, err := ch.Call(context.Background(), i, wire.Ping{})
		if err != nil {
			t.Fatalf("Call(%d): %v", i, err)
		}
		if _, ok := reply.(wire.Ack); !ok {
			t.Fatalf("Call(%d): unexpected reply %T", i, reply)
		}
	}
	if got := tr.TotalProcessed(); got != 3 {
		t.Fatalf("processed = %d, want 3", got)
	}
}

func TestChaosDropDeterministic(t *testing.T) {
	const calls = 200
	pattern := func(seed uint64) []bool {
		ch, _ := newChaosPair(t, 2, seed)
		ch.SetDropRate(0, 0.3)
		out := make([]bool, calls)
		for i := range out {
			_, err := ch.Call(context.Background(), 0, wire.Ping{})
			out[i] = err != nil
		}
		return out
	}
	a, b := pattern(7), pattern(7)
	drops := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: drop pattern diverged between equally seeded runs", i)
		}
		if a[i] {
			drops++
		}
	}
	if drops == 0 || drops == calls {
		t.Fatalf("drops = %d of %d, want a nontrivial fraction near 30%%", drops, calls)
	}
	c := pattern(8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == calls {
		t.Fatal("different seeds produced identical drop patterns")
	}
}

func TestChaosDropMatchesServerDown(t *testing.T) {
	ch, tr := newChaosPair(t, 1, 1)
	ch.SetDropRate(0, 1)
	_, err := ch.Call(context.Background(), 0, wire.Ping{})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("err = %v, want to match ErrServerDown so drivers fail over", err)
	}
	if got := tr.TotalProcessed(); got != 0 {
		t.Fatalf("dropped call reached the server (processed=%d)", got)
	}
}

func TestChaosLatencyAndDeadline(t *testing.T) {
	ch, tr := newChaosPair(t, 1, 1)
	ch.SetLatency(0, 30*time.Millisecond, 0)

	start := time.Now()
	if _, err := ch.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("latency not injected: call took %v", elapsed)
	}

	// A deadline shorter than the injected latency must abort the call
	// before it reaches the server.
	tr.ResetCounters()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := ch.Call(ctx, 0, wire.Ping{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := tr.TotalProcessed(); got != 0 {
		t.Fatalf("deadline-aborted call reached the server (processed=%d)", got)
	}
}

func TestChaosPartition(t *testing.T) {
	ch, _ := newChaosPair(t, 3, 1)
	ch.Partition(ClientOrigin, 1)
	ch.Partition(0, 2)

	if _, err := ch.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatalf("unpartitioned client call failed: %v", err)
	}
	if _, err := ch.Call(context.Background(), 1, wire.Ping{}); !errors.Is(err, ErrServerDown) {
		t.Fatalf("partitioned client call: err = %v, want ErrServerDown match", err)
	}

	// Peer views respect pairwise cuts in both directions.
	from0, from1 := ch.Origin(0), ch.Origin(1)
	if _, err := from0.Call(context.Background(), 2, wire.Ping{}); !errors.Is(err, ErrInjected) {
		t.Fatalf("0->2 should be cut: %v", err)
	}
	if _, err := from1.Call(context.Background(), 2, wire.Ping{}); err != nil {
		t.Fatalf("1->2 should be open: %v", err)
	}
	if !ch.Partitioned(2, 0) || ch.Partitioned(1, 2) {
		t.Fatal("Partitioned reports wrong pairs")
	}

	ch.Heal(0, 2)
	if _, err := from0.Call(context.Background(), 2, wire.Ping{}); err != nil {
		t.Fatalf("healed 0->2 still cut: %v", err)
	}
	ch.HealAll()
	if _, err := ch.Call(context.Background(), 1, wire.Ping{}); err != nil {
		t.Fatalf("HealAll left client->1 cut: %v", err)
	}
}

func TestChaosSlowStart(t *testing.T) {
	ch, _ := newChaosPair(t, 1, 1)
	ch.SlowStart(0, 2, 25*time.Millisecond)
	for call := 0; call < 3; call++ {
		start := time.Now()
		if _, err := ch.Call(context.Background(), 0, wire.Ping{}); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		elapsed := time.Since(start)
		if call < 2 && elapsed < 20*time.Millisecond {
			t.Fatalf("call %d finished in %v, want slow-start penalty", call, elapsed)
		}
		if call == 2 && elapsed > 15*time.Millisecond {
			t.Fatalf("call %d took %v, slow-start did not expire", call, elapsed)
		}
	}
}

func TestChaosNoFaultsConsumesNoRandomness(t *testing.T) {
	rng := stats.NewRNG(5)
	want := stats.NewRNG(5).Uint64()
	ch, _ := newChaosPair(t, 2, 99)
	ch.rng = rng
	for i := 0; i < 50; i++ {
		if _, err := ch.Call(context.Background(), i%2, wire.Ping{}); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	if got := rng.Uint64(); got != want {
		t.Fatal("fault-free chaos layer consumed RNG draws; seeded simulations would shift")
	}
}

func TestChaosOutOfRangeDelegates(t *testing.T) {
	ch, _ := newChaosPair(t, 2, 1)
	if _, err := ch.Call(context.Background(), 9, wire.Ping{}); err == nil {
		t.Fatal("out-of-range server accepted")
	}
}

func TestRetryMiddleware(t *testing.T) {
	tr := NewInproc(1)
	tr.Bind(0, ackOnlyHandler{})
	ch := NewChaos(tr, stats.NewRNG(3))
	r := newRetry(ch, 4, time.Millisecond)

	// Heavy drops: a single attempt fails often, four attempts rarely.
	ch.SetDropRate(0, 0.6)
	failures := 0
	for i := 0; i < 50; i++ {
		if _, err := r.Call(context.Background(), 0, wire.Ping{}); err != nil {
			failures++
		}
	}
	// P(all 4 attempts drop) = 0.6^4 ≈ 13%; all 50 failing would mean
	// retries are not happening.
	if failures == 50 {
		t.Fatal("retry middleware never recovered from drops")
	}

	// A hard-down server still reports ErrServerDown after the budget.
	tr.SetDown(0, true)
	ch.SetDropRate(0, 0)
	if _, err := r.Call(context.Background(), 0, wire.Ping{}); !errors.Is(err, ErrServerDown) {
		t.Fatalf("err = %v, want ErrServerDown", err)
	}
	// Cancellation is not retryable and passes through immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Call(ctx, 0, wire.Ping{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}
