package core_test

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/experiments"
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

// Example_musicShare is the paper's motivating workload: a Napster-style
// service where a song title maps to the peers holding a copy, under
// Round-2. Popular songs have more replicas and draw most lookups
// (Zipf), and a client wants any three peers. A peer that goes offline
// is deleted from every song it served, and lookups carry on without
// it. The hot-key load this spreads is measured by ext-hotspot, the
// fairness over a song's replicas by fig9.
func Example_musicShare() {
	ctx := context.Background()
	rng := stats.NewRNG(2024)
	cl := cluster.New(10, rng.Split())
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(5),
		core.WithDefaultConfig(core.Config{Scheme: core.RoundRobin, Y: 2}))
	if err != nil {
		panic(err)
	}

	// Song i is held by 5 + (40-i)/4 of 100 peers.
	const gone = "peer-07:6881"
	songs := make([]string, 40)
	served := 0
	for i := range songs {
		songs[i] = fmt.Sprintf("song-%02d", i)
		var peers []core.Entry
		for _, p := range rng.Perm(100)[:5+(len(songs)-i)/4] {
			peers = append(peers, fmt.Sprintf("peer-%02d:6881", p))
		}
		if slices.Contains(peers, gone) {
			served++
		}
		if err := svc.Place(ctx, songs[i], peers); err != nil {
			panic(err)
		}
	}
	lookup := func(song string) strategy.Result {
		res, err := svc.PartialLookup(ctx, song, 3)
		if err != nil {
			panic(err)
		}
		return res
	}
	popularity := stats.NewZipf(len(songs), 1.1)
	satisfied := 0
	for q := 0; q < 1000; q++ {
		if lookup(songs[popularity.Sample(rng)-1]).Satisfied(3) {
			satisfied++
		}
	}
	fmt.Println("lookups satisfied:", satisfied, "of 1000")

	for _, song := range songs {
		if err := svc.Delete(ctx, song, gone); err != nil {
			panic(err)
		}
	}
	returned := 0
	for _, song := range songs {
		if slices.Contains(lookup(song).Entries, gone) {
			returned++
		}
	}
	fmt.Printf("%s, on %d songs, went offline; lookups returning it: %d\n", gone, served, returned)
	fmt.Println("partial_lookup(song-00, 3):", lookup(songs[0]).Entries)
	// Output:
	// lookups satisfied: 1000 of 1000
	// peer-07:6881, on 5 songs, went offline; lookups returning it: 0
	// partial_lookup(song-00, 3): [peer-92:6881 peer-28:6881 peer-43:6881]
}

// Example_yellowPages is the paper's second workload: categories map to
// the URLs of sites in them, and sites appear and die. A classifier
// manages the high-churn category under Fixed-x with a cushion
// (x = t + b, Sec. 5.2) and the reference category under Round-2; both
// replay the same Poisson churn (Sec. 6.1) through the same interface,
// then keep answering after four of ten servers fail. The cushion's
// failure time is measured by fig12, the update overhead by fig14.
func Example_yellowPages() {
	ctx := context.Background()
	rng := stats.NewRNG(7)
	cl := cluster.New(10, rng.Split())
	const target, cushion = 10, 4
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(3),
		core.WithClassifier(func(key string) (core.Config, bool) {
			if strings.HasPrefix(key, "churn/") {
				return core.Config{Scheme: core.Fixed, X: target + cushion}, true
			}
			return core.Config{Scheme: core.RoundRobin, Y: 2}, true
		}))
	if err != nil {
		panic(err)
	}

	lifetime, err := experiments.DefaultLifetime("exp", 10, 50)
	if err != nil {
		panic(err)
	}
	stream, err := experiments.Generate(rng.Split(), experiments.StreamConfig{
		MeanArrivalGap: 10, SteadyState: 50, Lifetime: lifetime, Updates: 1000,
	})
	if err != nil {
		panic(err)
	}
	categories := []string{"churn/news", "stable/news"}
	url := func(v core.Entry) core.Entry { return "http://" + v + ".example.com" }
	for _, cat := range categories {
		urls := make([]core.Entry, len(stream.Initial))
		for i, v := range stream.Initial {
			urls[i] = url(v)
		}
		if err := svc.Place(ctx, cat, urls); err != nil {
			panic(err)
		}
	}
	for _, ev := range stream.Events {
		for _, cat := range categories {
			update := svc.Add
			if ev.Kind == experiments.OpDelete {
				update = svc.Delete
			}
			if err := update(ctx, cat, url(ev.Entry)); err != nil {
				panic(err)
			}
		}
	}
	fmt.Printf("after %d updates:\n", len(stream.Events))
	for _, cat := range categories {
		res, err := svc.PartialLookup(ctx, cat, target)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  %-12s %-8s storage %3d, partial_lookup(%d): %d URLs from %d server(s)\n",
			cat, svc.ConfigFor(cat), cl.TotalStorage(cat), target, len(res.Entries), res.Contacted)
	}

	for _, s := range []int{1, 4, 6, 9} {
		cl.Fail(s)
	}
	fmt.Println("after failing servers 1, 4, 6, 9:")
	for _, cat := range categories {
		ok := 0
		for q := 0; q < 100; q++ {
			res, err := svc.PartialLookup(ctx, cat, target)
			if err != nil {
				panic(err)
			}
			if res.Satisfied(target) {
				ok++
			}
		}
		fmt.Printf("  %-12s %3d/100 satisfied\n", cat, ok)
	}
	// Output:
	// after 1000 updates:
	//   churn/news   Fixed-14 storage 140, partial_lookup(10): 10 URLs from 1 server(s)
	//   stable/news  Round-2  storage  72, partial_lookup(10): 15 URLs from 2 server(s)
	// after failing servers 1, 4, 6, 9:
	//   churn/news   100/100 satisfied
	//   stable/news  100/100 satisfied
}
