package node_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/transport"
	"repro/internal/wire"
)

// kindLog records the kind of every peer call the nodes of a wired
// cluster make. A node never calls itself through its peer caller, so
// every call logged crossed a socket.
type kindLog struct {
	mu    sync.Mutex
	kinds []wire.Kind
}

func (l *kindLog) take() []wire.Kind {
	l.mu.Lock()
	defer l.mu.Unlock()
	k := l.kinds
	l.kinds = nil
	return k
}

type kindLogger struct {
	transport.Caller
	log *kindLog
}

func (c kindLogger) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	c.log.mu.Lock()
	c.log.kinds = append(c.log.kinds, msg.Kind())
	c.log.mu.Unlock()
	return c.Caller.Call(ctx, server, msg)
}

// TestUpdatesStartAtAHome counts the round trip that starting a Hash-y
// update at a home of its entry saves. Over real sockets a Hash-2 add or
// delete sent through strategy.Driver reaches a home first, which stores
// its own copy in process: the update makes one remote StoreOne or
// RemoveOne when its two homes differ and none when they coincide,
// where starting at a random server made up to two. The paper's meter
// counts processed messages, not remote ones, so for every scheme the
// messages per update are what they were before updates started at a
// home.
func TestUpdatesStartAtAHome(t *testing.T) {
	t.Run("Hash-2 over sockets", func(t *testing.T) {
		const n = 4
		cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7}
		for _, warm := range []bool{false, true} {
			cl, err := cluster.NewWired(n, stats.NewRNG(1), "")
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			log := &kindLog{}
			for i := 0; i < n; i++ {
				cl.Node(i).Attach(kindLogger{Caller: cl.Member(i).Peers, log: log})
			}
			drv := strategy.MustNew(cfg, stats.NewRNG(3))
			caller := cl.Caller()
			if warm {
				sel := selector.New(n, selector.Options{})
				drv.SetSelector(sel)
				caller = selector.Observe(caller, sel)
			}
			ctx := context.Background()
			if err := drv.Place(ctx, caller, "k", []string{"a", "b", "c"}); err != nil {
				t.Fatalf("Place: %v", err)
			}
			log.take()
			seen := map[int]bool{}
			for i := 0; i < 24; i++ {
				v := fmt.Sprintf("v%d", i)
				homes := node.HomesFor(v, cfg, n, nil)
				seen[len(homes)] = true
				for _, op := range []struct {
					name   string
					update func(context.Context, transport.Caller, string, string) error
					kind   wire.Kind
				}{{"add", drv.Add, wire.KindStoreOne}, {"delete", drv.Delete, wire.KindRemoveOne}} {
					if err := op.update(ctx, caller, "k", v); err != nil {
						t.Fatalf("%s %s: %v", op.name, v, err)
					}
					var want []wire.Kind // one remote call per home the update did not start at
					for range homes[1:] {
						want = append(want, op.kind)
					}
					if got := log.take(); !slices.Equal(got, want) {
						t.Fatalf("selector %v: %s of %s (homes %v) made peer calls of kinds %v, want %v", warm, op.name, v, homes, got, want)
					}
					for s := 0; s < n; s++ {
						if got, want := cl.Node(s).LocalSet("k").Contains(v), op.name == "add" && slices.Contains(homes, s); got != want {
							t.Fatalf("selector %v: after %s of %s server %d holds it: %v, want %v", warm, op.name, v, s, got, want)
						}
					}
				}
			}
			if !seen[1] || !seen[2] {
				t.Fatalf("homes per entry seen %v: need both distinct and colliding homes", seen)
			}
		}
	})

	t.Run("messages per update, seven schemes", func(t *testing.T) {
		// Per scheme, the cluster.Messages() each of twelve updates cost
		// before updates started at a home (measured at that commit).
		want := map[wire.Scheme][]int64{
			wire.FullReplication: {6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6},
			wire.Fixed:           {1, 1, 6, 6, 1, 6, 6, 1, 1, 1, 1, 1},
			wire.RandomServer:    {6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 6},
			wire.RoundRobin:      {3, 3, 10, 3, 3, 10, 3, 3, 10, 3, 3, 6},
			wire.Hash:            {3, 3, 3, 3, 2, 3, 3, 3, 3, 3, 3, 3},
			wire.MultiProbe:      {3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3},
			wire.KeyPartition:    {2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2},
		}
		for _, cfg := range []wire.Config{
			{Scheme: wire.FullReplication},
			{Scheme: wire.Fixed, X: 6},
			{Scheme: wire.RandomServer, X: 6},
			{Scheme: wire.RoundRobin, Y: 2},
			{Scheme: wire.Hash, Y: 2, Seed: 7},
			{Scheme: wire.MultiProbe, Y: 2, Seed: 7},
			{Scheme: wire.KeyPartition},
		} {
			rng := stats.NewRNG(61)
			cl := cluster.New(5, rng.Split())
			drv := strategy.MustNew(cfg, rng.Split())
			ctx := context.Background()
			if err := drv.Place(ctx, cl.Caller(), "k", entry.Synthetic(10)); err != nil {
				t.Fatalf("%v: Place: %v", cfg, err)
			}
			cl.ResetMessages()
			var got []int64
			for i := 0; i < 12; i++ {
				var err error
				switch i % 3 {
				case 0, 1:
					err = drv.Add(ctx, cl.Caller(), "k", fmt.Sprintf("x%d", i))
				default:
					err = drv.Delete(ctx, cl.Caller(), "k", fmt.Sprintf("v%d", i))
				}
				if err != nil {
					t.Fatalf("%v: update %d: %v", cfg, i, err)
				}
				got = append(got, cl.Messages())
				cl.ResetMessages()
			}
			if !slices.Equal(got, want[cfg.Scheme]) {
				t.Errorf("%v: messages per update %#v, want %#v", cfg, got, want[cfg.Scheme])
			}
		}
	})
}
