// Quickstart: build an in-process cluster of 10 lookup servers, manage
// one key under each of the paper's five placement strategies, and
// compare what each costs and returns.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/stats"
)

func main() {
	ctx := context.Background()

	// One cluster, five keys, one strategy per key — the paper's
	// "different strategies can manage different types of keys".
	cl := cluster.New(10, stats.NewRNG(42))
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(7),
		core.WithKeyConfig("by-full", core.Config{Scheme: core.FullReplication}),
		core.WithKeyConfig("by-fixed", core.Config{Scheme: core.Fixed, X: 20}),
		core.WithKeyConfig("by-randomserver", core.Config{Scheme: core.RandomServer, X: 20}),
		core.WithKeyConfig("by-round", core.Config{Scheme: core.RoundRobin, Y: 2}),
		core.WithKeyConfig("by-hash", core.Config{Scheme: core.Hash, Y: 2, Seed: 99}),
		// The traditional hashing baseline of Fig. 1 (center), for contrast.
		core.WithKeyConfig("by-partition", core.Config{Scheme: core.KeyPartition}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 100 entries per key — say, 100 mirrors of a popular file.
	entries := entry.Synthetic(100)
	keys := []string{"by-full", "by-fixed", "by-randomserver", "by-round", "by-hash", "by-partition"}
	for _, key := range keys {
		if err := svc.Place(ctx, key, entries); err != nil {
			log.Fatalf("place %s: %v", key, err)
		}
	}

	fmt.Println("partial_lookup(k, 15) under each strategy (100 entries, 10 servers):")
	fmt.Printf("%-18s %8s %9s %9s %8s\n", "strategy", "storage", "coverage", "contacted", "got")
	for _, key := range keys {
		res, err := svc.PartialLookup(ctx, key, 15)
		if err != nil {
			log.Fatalf("lookup %s: %v", key, err)
		}
		fmt.Printf("%-18s %8d %9d %9d %8d\n",
			svc.ConfigFor(key).String(),
			cl.TotalStorage(key),
			entry.Union(cl.Snapshot(key)...),
			res.Contacted,
			len(res.Entries))
	}

	// Updates: the interface is the same for every strategy.
	fmt.Println("\nadd mirror191 / delete v1 on every key:")
	for _, key := range keys {
		if err := svc.Add(ctx, key, "mirror191"); err != nil {
			log.Fatalf("add %s: %v", key, err)
		}
		if err := svc.Delete(ctx, key, "v1"); err != nil {
			log.Fatalf("delete %s: %v", key, err)
		}
	}
	for _, key := range keys {
		res, _ := svc.PartialLookup(ctx, key, 10)
		fmt.Printf("  %-18s still satisfies t=10: %v\n", svc.ConfigFor(key).String(), res.Satisfied(10))
	}

	// Fault tolerance: kill three servers; partial lookups continue.
	fmt.Println("\nafter failing servers 0, 3, 7:")
	cl.Fail(0)
	cl.Fail(3)
	cl.Fail(7)
	for _, key := range keys {
		res, err := svc.PartialLookup(ctx, key, 10)
		if err != nil {
			// The traditional baseline loses any key whose single
			// owner failed — exactly the weakness the paper motivates
			// partial lookups with.
			fmt.Printf("  %-18s UNAVAILABLE: %v\n", svc.ConfigFor(key).String(), err)
			continue
		}
		fmt.Printf("  %-18s satisfied=%v (contacted %d live servers)\n",
			svc.ConfigFor(key).String(), res.Satisfied(10), res.Contacted)
	}
}
