package core_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// gateCaller wraps a Caller and optionally parks update calls on a
// gate, so tests can interleave a lookup while an update is in flight.
type gateCaller struct {
	inner transport.Caller
	gate  chan struct{} // non-nil: updates wait here before proceeding
}

func (g *gateCaller) NumServers() int { return g.inner.NumServers() }

func (g *gateCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	switch msg.Kind() {
	case wire.KindPlace, wire.KindAdd, wire.KindDelete, wire.KindPlaceBatch, wire.KindAddBatch:
		if g.gate != nil {
			<-g.gate
		}
	}
	return g.inner.Call(ctx, server, msg)
}

// Linearizability-style regression for the selector route cache: a
// lookup running concurrently with an in-flight place must not leave a
// pre-update route in the cache once the place has been acked. The old
// code invalidated before sending the update, so the concurrent
// lookup's RecordAnswer re-cached the old layout and that stale route
// survived the ack; invalidation now happens after the acks land.
func TestStaleRouteNeverOutlivesAckedPlace(t *testing.T) {
	cl := cluster.New(4, stats.NewRNG(7))
	sel := selector.New(4, selector.Options{})
	gc := &gateCaller{inner: cl.Caller(), gate: make(chan struct{})}
	svc, err := core.NewService(gc,
		core.WithSeed(11),
		core.WithDefaultConfig(core.Config{Scheme: core.RandomServer, X: 2}),
		core.WithSelector(sel),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Seed the key (gate open for the setup place).
	close(gc.gate)
	if err := svc.Place(ctx, "k", []core.Entry{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}

	// Re-place with the update parked on a fresh gate.
	gc.gate = make(chan struct{})
	placeDone := make(chan error, 1)
	go func() {
		placeDone <- svc.Place(ctx, "k", []core.Entry{"d", "e", "f"})
	}()

	// While the place is in flight, a lookup probes and warms the route
	// cache with the OLD layout.
	if _, err := svc.PartialLookup(ctx, "k", 2); err != nil {
		t.Fatal(err)
	}
	if sel.CachedKeys() == 0 {
		t.Fatal("test harness: concurrent lookup did not warm the cache")
	}

	// Release the update; once its ack is observed the stale route must
	// be gone.
	close(gc.gate)
	if err := <-placeDone; err != nil {
		t.Fatal(err)
	}
	if got := sel.CachedKeys(); got != 0 {
		t.Fatalf("%d stale cached route(s) survived the acked place", got)
	}
}
