package node_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/wire"
)

// benchKeys is the number of distinct keys the parallel benchmarks
// spread their traffic over; enough that a sharded store sees little
// same-key contention at any realistic GOMAXPROCS.
const benchKeys = 64

// benchCluster places benchKeys FullReplication keys of h entries each
// on a single-node cluster and returns the caller to hammer.
func benchCluster(b *testing.B, h int) transport.Caller {
	b.Helper()
	cl := cluster.New(1, stats.NewRNG(1))
	ctx := context.Background()
	entries := make([]string, h)
	for i := range entries {
		entries[i] = fmt.Sprintf("v%d", i+1)
	}
	for k := 0; k < benchKeys; k++ {
		_, err := cl.Caller().Call(ctx, 0, wire.Place{
			Key:     benchKey(k),
			Config:  wire.Config{Scheme: wire.FullReplication},
			Entries: entries,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	return cl.Caller()
}

func benchKey(k int) string { return fmt.Sprintf("bench-k%d", k) }

// BenchmarkNodeParallelLookup measures multi-core partial-lookup
// throughput of one node across many keys: the workload the sharded
// store with copy-on-write snapshots is built for.
func BenchmarkNodeParallelLookup(b *testing.B) {
	c := benchCluster(b, 200)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := 0
		for pb.Next() {
			reply, err := c.Call(ctx, 0, wire.Lookup{Key: benchKey(k % benchKeys), T: 10})
			if err != nil {
				b.Fatal(err)
			}
			if lr, ok := reply.(wire.LookupReply); !ok || len(lr.Entries) != 10 {
				b.Fatalf("bad reply %#v", reply)
			}
			k++
		}
	})
}

// BenchmarkNodeParallelMixed interleaves lookups with adds and deletes
// across many keys, exercising snapshot invalidation under write load.
func BenchmarkNodeParallelMixed(b *testing.B) {
	c := benchCluster(b, 200)
	ctx := context.Background()
	cfg := wire.Config{Scheme: wire.FullReplication}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			key := benchKey(i % benchKeys)
			switch i % 8 {
			case 6:
				v := fmt.Sprintf("w%d", i)
				if _, err := c.Call(ctx, 0, wire.Add{Key: key, Config: cfg, Entry: v}); err != nil {
					b.Fatal(err)
				}
			case 7:
				v := fmt.Sprintf("w%d", i-1)
				if _, err := c.Call(ctx, 0, wire.Delete{Key: key, Config: cfg, Entry: v}); err != nil {
					b.Fatal(err)
				}
			default:
				if _, err := c.Call(ctx, 0, wire.Lookup{Key: key, T: 10}); err != nil {
					b.Fatal(err)
				}
			}
			i++
		}
	})
}

// BenchmarkNodeLookupBatch measures the amortized per-key cost of the
// multi-key LookupBatch envelope versus benchKeys separate Lookup round
// trips (BenchmarkNodeParallelLookup measures the latter one key at a
// time).
func BenchmarkNodeLookupBatch(b *testing.B) {
	c := benchCluster(b, 200)
	ctx := context.Background()
	items := make([]wire.Lookup, benchKeys)
	for k := range items {
		items[k] = wire.Lookup{Key: benchKey(k), T: 10}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			reply, err := c.Call(ctx, 0, wire.LookupBatch{Items: items})
			if err != nil {
				b.Fatal(err)
			}
			lbr, ok := reply.(wire.LookupBatchReply)
			if !ok || len(lbr.Replies) != benchKeys {
				b.Fatalf("bad batch reply %#v", reply)
			}
		}
	})
}
