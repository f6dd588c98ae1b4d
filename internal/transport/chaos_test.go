package transport

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/wire"
)

// ackHandler replies to every message with an empty Ack, counting
// the messages it handles.
type ackHandler struct{ handled atomic.Int64 }

func (h *ackHandler) Handle(ctx context.Context, msg wire.Message) wire.Message {
	h.handled.Add(1)
	return wire.Ack{}
}

// newTestChaos returns an n-server network, seeded with seed, whose
// slots all deliver to one ackHandler.
func newTestChaos(t *testing.T, n int, seed uint64) (*Chaos, *ackHandler) {
	t.Helper()
	ch, h := NewChaos(n, stats.NewRNG(seed)), &ackHandler{}
	for i := 0; i < n; i++ {
		ch.Bind(i, h)
	}
	return ch, h
}

func TestChaosPassThrough(t *testing.T) {
	ch, h := newTestChaos(t, 3, 1)
	for i := 0; i < 3; i++ {
		reply, err := ch.Call(context.Background(), i, wire.Ping{})
		if err != nil {
			t.Fatalf("Call(%d): %v", i, err)
		}
		if _, ok := reply.(wire.Ack); !ok {
			t.Fatalf("Call(%d): unexpected reply %T", i, reply)
		}
	}
	if got := h.handled.Load(); got != 3 {
		t.Fatalf("handled = %d, want 3", got)
	}
}

func TestChaosDropDeterministic(t *testing.T) {
	const calls = 200
	pattern := func(seed uint64) []bool {
		ch, _ := newTestChaos(t, 2, seed)
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
	ch, h := newTestChaos(t, 1, 1)
	ch.SetDropRate(0, 1)
	_, err := ch.Call(context.Background(), 0, wire.Ping{})
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if !errors.Is(err, ErrServerDown) {
		t.Fatalf("err = %v, want to match ErrServerDown so drivers fail over", err)
	}
	if got := h.handled.Load(); got != 0 {
		t.Fatalf("dropped call reached the server (handled=%d)", got)
	}
}

func TestChaosLatencyAndDeadline(t *testing.T) {
	ch, h := newTestChaos(t, 1, 1)
	ch.SetLatency(0, 30*time.Millisecond, 0)
	clock := ch.Clock()

	start := clock.Now()
	if _, err := ch.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if elapsed := clock.Now().Sub(start); elapsed != 30*time.Millisecond {
		t.Fatalf("call took %v of virtual time, want the injected 30ms", elapsed)
	}

	// A deadline shorter than the injected latency must abort the call
	// at the deadline, before it reaches the server.
	h.handled.Store(0)
	ctx, cancel := clock.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start = clock.Now()
	_, err := ch.Call(ctx, 0, wire.Ping{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := clock.Now().Sub(start); elapsed != 5*time.Millisecond {
		t.Fatalf("deadline-aborted call took %v, want the 5ms deadline", elapsed)
	}
	if got := h.handled.Load(); got != 0 {
		t.Fatalf("deadline-aborted call reached the server (handled=%d)", got)
	}
}

// viewOf returns slot i's view of every server on ch.
func viewOf(ch *Chaos, i int) Caller {
	var addrs []string
	for _, s := range ch.slots {
		addrs = append(addrs, s.addr)
	}
	return ch.View(addrs[i], addrs)
}

func TestChaosPartition(t *testing.T) {
	ch, _ := newTestChaos(t, 3, 1)
	ch.Partition(ClientOrigin, 1)
	ch.Partition(0, 2)

	if _, err := ch.Call(context.Background(), 0, wire.Ping{}); err != nil {
		t.Fatalf("unpartitioned client call failed: %v", err)
	}
	if _, err := ch.Call(context.Background(), 1, wire.Ping{}); !errors.Is(err, ErrServerDown) {
		t.Fatalf("partitioned client call: err = %v, want ErrServerDown match", err)
	}

	// Peer views respect pairwise cuts in both directions.
	from0, from1 := viewOf(ch, 0), viewOf(ch, 1)
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
	ch, _ := newTestChaos(t, 1, 1)
	ch.SlowStart(0, 2, 25*time.Millisecond)
	for call, want := range []time.Duration{25 * time.Millisecond, 25 * time.Millisecond, 0} {
		start := ch.Clock().Now()
		if _, err := ch.Call(context.Background(), 0, wire.Ping{}); err != nil {
			t.Fatalf("call %d: %v", call, err)
		}
		if elapsed := ch.Clock().Now().Sub(start); elapsed != want {
			t.Fatalf("call %d took %v, want %v: two slow-start calls, then none", call, elapsed, want)
		}
	}
}

func TestChaosNoFaultsConsumesNoRandomness(t *testing.T) {
	rng := stats.NewRNG(5)
	want := stats.NewRNG(5).Uint64()
	ch, _ := newTestChaos(t, 2, 99)
	ch.rng = rng
	for i := 0; i < 50; i++ {
		if _, err := ch.Call(context.Background(), i%2, wire.Ping{}); err != nil {
			t.Fatalf("Call: %v", err)
		}
	}
	if got := rng.Uint64(); got != want {
		t.Fatal("fault-free network consumed RNG draws; seeded simulations would shift")
	}
}

func TestChaosOutOfRangeDelegates(t *testing.T) {
	ch, _ := newTestChaos(t, 2, 1)
	if _, err := ch.Call(context.Background(), 9, wire.Ping{}); err == nil {
		t.Fatal("out-of-range server accepted")
	}
}

func TestRetryMiddleware(t *testing.T) {
	ch, _ := newTestChaos(t, 1, 3)
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
	ch.SetDown(0, true)
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

// tagHandler answers every message with an Ack naming its tag, so a
// test can tell which handler a slot holds.
type tagHandler int

func (h tagHandler) Handle(context.Context, wire.Message) wire.Message {
	return wire.Ack{Err: fmt.Sprint(int(h))}
}

// TestChaosRemoveShiftsSlotsTogether: removing slot i moves every
// higher slot's handler, down flag, fault profile, slow-start budget
// and partitions down by one together, and drops i's partitions; an
// id outside the slots changes nothing.
func TestChaosRemoveShiftsSlotsTogether(t *testing.T) {
	const n = 4
	cuts := [][2]int{{0, 1}, {1, 3}, {ClientOrigin, 2}, {2, 3}}
	for _, tc := range []struct {
		remove int
		kept   []int    // the original slots left, in order
		cut    [][2]int // the partitions left, renumbered
	}{
		{0, []int{1, 2, 3}, [][2]int{{0, 2}, {ClientOrigin, 1}, {1, 2}}},
		{1, []int{0, 2, 3}, [][2]int{{ClientOrigin, 1}, {1, 2}}},
		{3, []int{0, 1, 2}, [][2]int{{0, 1}, {ClientOrigin, 2}}},
		{n, []int{0, 1, 2, 3}, cuts},
	} {
		t.Run(fmt.Sprint(tc.remove), func(t *testing.T) {
			ch := NewChaos(n, stats.NewRNG(1))
			for i := 0; i < n; i++ {
				ch.Bind(i, tagHandler(i))
				ch.SetDown(i, i%2 == 1)
				ch.SetLatency(i, time.Duration(i+1)*time.Millisecond, time.Duration(i)*time.Microsecond)
				ch.SetDropRate(i, float64(i)/10)
				ch.SlowStart(i, i+1, time.Duration(i+1)*time.Second)
			}
			for _, p := range cuts {
				ch.Partition(p[0], p[1])
			}
			before := append([]slot(nil), ch.slots...)

			ch.Remove(tc.remove)

			var want []slot
			for _, i := range tc.kept {
				want = append(want, before[i])
			}
			if !reflect.DeepEqual(ch.slots, want) {
				t.Errorf("slots = %+v, want %+v", ch.slots, want)
			}
			wantCut := map[[2]int]bool{}
			for _, p := range tc.cut {
				wantCut[pairKey(p[0], p[1])] = true
			}
			if !maps.Equal(ch.cut, wantCut) {
				t.Errorf("partitions = %v, want %v", ch.cut, wantCut)
			}
			if ch.NumServers() != len(tc.kept) {
				t.Errorf("NumServers = %d, want %d", ch.NumServers(), len(tc.kept))
			}
		})
	}
}

// TestChaosAddAppendsFaultFreeSlot: a joiner's slot delivers to its
// handler at once, with no faults, down flag or partitions of its own.
func TestChaosAddAppendsFaultFreeSlot(t *testing.T) {
	ch := NewChaos(2, stats.NewRNG(1))
	ch.SetDropRate(1, 1)
	ch.Partition(ClientOrigin, 1)
	if id := ch.Add("sim://joiner", tagHandler(7)); id != 2 {
		t.Fatalf("Add returned slot %d, want 2", id)
	}
	reply, err := ch.Call(context.Background(), 2, wire.Ping{})
	if err != nil || reply.(wire.Ack).Err != "7" {
		t.Fatalf("call to the added slot = %v, %v; want the bound handler's Ack", reply, err)
	}
	if ch.Down(2) || ch.DownCount() != 0 {
		t.Fatal("added slot starts down")
	}
}

// TestChaosDownTargetStillDraws: a call to a down server draws its
// faults as a call to an up one does, so failing a server never shifts
// the fault schedule of the calls after it.
func TestChaosDownTargetStillDraws(t *testing.T) {
	draws := func(down bool) (uint64, time.Duration) {
		ch, _ := newTestChaos(t, 1, 5)
		ch.SetLatency(0, 0, time.Millisecond)
		ch.SetDropRate(0, 0.5)
		ch.SlowStart(0, 1, time.Second)
		ch.SetDown(0, down)
		start := ch.Clock().Now()
		for i := 0; i < 20; i++ {
			ch.Call(context.Background(), 0, wire.Ping{})
		}
		return ch.rng.Uint64(), ch.Clock().Now().Sub(start)
	}
	upNext, upTime := draws(false)
	downNext, downTime := draws(true)
	if upNext != downNext || upTime != downTime {
		t.Fatalf("down target: next draw %x after %v, up target: %x after %v; want equal", downNext, downTime, upNext, upTime)
	}
}
