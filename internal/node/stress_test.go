package node_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/wire"
)

// TestNodeConcurrentStress hammers one node with concurrent adds,
// deletes, lookups and gauge reads across many keys. It asserts nothing
// about distributions — its job is to drive every store path (key
// creation, snapshot invalidation and rebuild, executor dispatch,
// counter ext state) from many goroutines at once so the race detector
// can catch any unsynchronized access the refactor let through. Run it
// with -race (the repo's CI race job does).
func TestNodeConcurrentStress(t *testing.T) {
	const (
		workers    = 8
		opsPerWork = 400
		stressKeys = 32
	)
	cl := cluster.New(3, stats.NewRNG(7))
	ctx := context.Background()

	// Seed keys across several schemes so dispatch exercises more than
	// one executor under load.
	configs := []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 8},
		{Scheme: wire.RandomServer, X: 8},
		{Scheme: wire.Hash, Y: 2},
	}
	seed := make([]string, 16)
	for i := range seed {
		seed[i] = fmt.Sprintf("seed%d", i)
	}
	for k := 0; k < stressKeys; k++ {
		reply, err := cl.Caller().Call(ctx, 0, wire.Place{
			Key:     stressKey(k),
			Config:  configs[k%len(configs)],
			Entries: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
			t.Fatalf("place %d: %#v", k, reply)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerWork; i++ {
				key := stressKey((w*opsPerWork + i) % stressKeys)
				cfg := configs[((w*opsPerWork+i)%stressKeys)%len(configs)]
				var err error
				switch i % 8 {
				case 0:
					_, err = cl.Caller().Call(ctx, 0, wire.Add{
						Key: key, Config: cfg, Entry: fmt.Sprintf("w%d-%d", w, i),
					})
				case 1:
					_, err = cl.Caller().Call(ctx, 0, wire.Delete{
						Key: key, Config: cfg, Entry: fmt.Sprintf("w%d-%d", w, i-1),
					})
				case 2:
					// Gauge reads race against writers by design.
					cl.Node(0).EntryCount()
					cl.Node(0).KeyCount()
					cl.Node(0).LocalLen(key)
				case 3:
					_, err = cl.Caller().Call(ctx, 0, wire.Dump{Key: key})
				case 4:
					items := make([]wire.Lookup, 4)
					for j := range items {
						items[j] = wire.Lookup{Key: stressKey((i + j) % stressKeys), T: 5}
					}
					_, err = cl.Caller().Call(ctx, 0, wire.LookupBatch{Items: items})
				default:
					_, err = cl.Caller().Call(ctx, 0, wire.Lookup{Key: key, T: 5})
				}
				if err != nil {
					t.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	// The node must still be coherent: every seeded key exists and
	// respects its scheme's per-server bound.
	for k := 0; k < stressKeys; k++ {
		cfg := configs[k%len(configs)]
		set := cl.Node(0).LocalSet(stressKey(k))
		if cfg.Scheme == wire.Fixed || cfg.Scheme == wire.RandomServer {
			if set.Len() > cfg.X {
				t.Fatalf("key %d exceeds x=%d: %d entries", k, cfg.X, set.Len())
			}
		}
		for _, v := range set.Members() {
			if !entry.Valid(v) {
				t.Fatalf("key %d stores invalid entry", k)
			}
		}
	}
}

func stressKey(k int) string { return fmt.Sprintf("stress-k%d", k) }
