package core_test

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
)

// ExampleService shows the basic lifecycle: place a key's entries under
// Round-Robin-2 on ten servers, then retrieve a partial answer.
func ExampleService() {
	ctx := context.Background()
	cl := cluster.New(10, stats.NewRNG(1))
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(1),
		core.WithDefaultConfig(core.Config{Scheme: core.RoundRobin, Y: 2}))
	if err != nil {
		panic(err)
	}

	// 100 locations for one file.
	if err := svc.Place(ctx, "ubuntu.iso", entry.Synthetic(100)); err != nil {
		panic(err)
	}

	// A client needs any 3 of them.
	res, err := svc.PartialLookup(ctx, "ubuntu.iso", 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("satisfied:", res.Satisfied(3))
	fmt.Println("servers contacted:", res.Contacted)
	fmt.Println("total storage:", cl.TotalStorage("ubuntu.iso"))
	// Output:
	// satisfied: true
	// servers contacted: 1
	// total storage: 200
}

// ExampleService_preferenceLookup demonstrates the Sec. 7.1 variation
// on five servers behind loopback sockets: after a plain partial
// lookup, the client ranks entries by a cost function, here the
// simulated latency to each file-sharing peer, and receives the t best
// among an over-fetched candidate set. When a server fails, the lookup
// fails over.
func ExampleService_preferenceLookup() {
	ctx := context.Background()
	cl, err := cluster.NewWired(5, stats.NewRNG(11), "")
	if err != nil {
		panic(err)
	}
	defer cl.Close()
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(23),
		core.WithDefaultConfig(core.Config{Scheme: core.RandomServer, X: 12}))
	if err != nil {
		panic(err)
	}
	latency := make(map[core.Entry]float64, 40) // 5..300 ms per peer
	peers := make([]core.Entry, 40)
	latRng := stats.NewRNG(99)
	for i := range peers {
		peers[i] = fmt.Sprintf("peer-%02d:6881", i)
		latency[peers[i]] = 5 + 295*latRng.Float64()
	}
	if err := svc.Place(ctx, "ubuntu.iso", peers); err != nil {
		panic(err)
	}
	show := func(title string, res strategy.Result, err error) {
		if err != nil {
			panic(err)
		}
		fmt.Println(title)
		for _, p := range res.Entries[:3] {
			fmt.Printf("  %s (%.0f ms)\n", p, latency[p])
		}
	}
	res, err := svc.PartialLookup(ctx, "ubuntu.iso", 3)
	show("any 3:", res, err)
	cost := func(v core.Entry) float64 { return latency[v] }
	res, err = svc.PreferenceLookup(ctx, "ubuntu.iso", 3, 4, cost)
	show("the 3 nearest:", res, err)
	cl.Fail(2)
	res, err = svc.PreferenceLookup(ctx, "ubuntu.iso", 3, 4, cost)
	show("the 3 nearest, server 2 failed:", res, err)
	// Output:
	// any 3:
	//   peer-22:6881 (257 ms)
	//   peer-23:6881 (195 ms)
	//   peer-30:6881 (21 ms)
	// the 3 nearest:
	//   peer-31:6881 (5 ms)
	//   peer-30:6881 (21 ms)
	//   peer-07:6881 (22 ms)
	// the 3 nearest, server 2 failed:
	//   peer-31:6881 (5 ms)
	//   peer-25:6881 (36 ms)
	//   peer-32:6881 (37 ms)
}

// Example_strategies manages one key under each of the paper's five
// placement strategies, and the traditional key-partition baseline, on
// one cluster of ten servers ("different strategies can manage
// different types of keys") and compares what each costs and returns,
// after updates and after three servers fail.
func Example_strategies() {
	ctx := context.Background()
	cl := cluster.New(10, stats.NewRNG(42))
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(7),
		core.WithKeyConfig("by-full", core.Config{Scheme: core.FullReplication}),
		core.WithKeyConfig("by-fixed", core.Config{Scheme: core.Fixed, X: 20}),
		core.WithKeyConfig("by-randomserver", core.Config{Scheme: core.RandomServer, X: 20}),
		core.WithKeyConfig("by-round", core.Config{Scheme: core.RoundRobin, Y: 2}),
		core.WithKeyConfig("by-hash", core.Config{Scheme: core.Hash, Y: 2, Seed: 99}),
		core.WithKeyConfig("by-partition", core.Config{Scheme: core.KeyPartition}),
	)
	if err != nil {
		panic(err)
	}

	// 100 entries per key: say, 100 mirrors of a popular file.
	keys := []string{"by-full", "by-fixed", "by-randomserver", "by-round", "by-hash", "by-partition"}
	for _, key := range keys {
		if err := svc.Place(ctx, key, entry.Synthetic(100)); err != nil {
			panic(err)
		}
	}
	fmt.Println("partial_lookup(k, 15) under each strategy (100 entries, 10 servers):")
	fmt.Printf("%-18s %8s %9s %9s %8s\n", "strategy", "storage", "coverage", "contacted", "got")
	for _, key := range keys {
		res, err := svc.PartialLookup(ctx, key, 15)
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-18s %8d %9d %9d %8d\n", svc.ConfigFor(key), cl.TotalStorage(key),
			entry.Union(cl.Snapshot(key)...), res.Contacted, len(res.Entries))
	}

	// Updates: the interface is the same for every strategy.
	fmt.Println("\nadd mirror191 / delete v1 on every key:")
	for _, key := range keys {
		if err := svc.Add(ctx, key, "mirror191"); err != nil {
			panic(err)
		}
		if err := svc.Delete(ctx, key, "v1"); err != nil {
			panic(err)
		}
	}
	for _, key := range keys {
		res, _ := svc.PartialLookup(ctx, key, 10)
		fmt.Printf("  %-18s still satisfies t=10: %v\n", svc.ConfigFor(key), res.Satisfied(10))
	}

	// Partial lookups carry on past failures. The traditional baseline
	// loses any key whose one owner failed: the weakness the paper
	// motivates partial lookups with.
	fmt.Println("\nafter failing servers 0, 3, 7:")
	for _, s := range []int{0, 3, 7} {
		cl.Fail(s)
	}
	for _, key := range keys {
		res, err := svc.PartialLookup(ctx, key, 10)
		if err != nil {
			fmt.Printf("  %-18s UNAVAILABLE: %v\n", svc.ConfigFor(key), err)
			continue
		}
		fmt.Printf("  %-18s satisfied=%v (contacted %d live servers)\n",
			svc.ConfigFor(key), res.Satisfied(10), res.Contacted)
	}
	// Output:
	// partial_lookup(k, 15) under each strategy (100 entries, 10 servers):
	// strategy            storage  coverage contacted      got
	// FullReplication        1000       100         1       15
	// Fixed-20                200        20         1       15
	// RandomServer-20         200        90         1       15
	// Round-2                 200       100         1       15
	// Hash-2                  190       100         2       28
	// KeyPartition            100       100         1       15
	//
	// add mirror191 / delete v1 on every key:
	//   FullReplication    still satisfies t=10: true
	//   Fixed-20           still satisfies t=10: true
	//   RandomServer-20    still satisfies t=10: true
	//   Round-2            still satisfies t=10: true
	//   Hash-2             still satisfies t=10: true
	//   KeyPartition       still satisfies t=10: true
	//
	// after failing servers 0, 3, 7:
	//   FullReplication    satisfied=true (contacted 1 live servers)
	//   Fixed-20           satisfied=true (contacted 1 live servers)
	//   RandomServer-20    satisfied=true (contacted 1 live servers)
	//   Round-2            satisfied=true (contacted 1 live servers)
	//   Hash-2             satisfied=true (contacted 1 live servers)
	//   KeyPartition       UNAVAILABLE: strategy: no live servers: partition server 7
}
