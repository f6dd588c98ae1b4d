// Yellowpages: the paper's second motivating workload — categories
// ("news", "music", ...) map to URLs of sites in that category. The
// catalog churns continuously (sites appear and die), which exercises
// the dynamic-update protocols of Sec. 5:
//
//   - high-churn categories run Fixed-x with a cushion (cheap updates,
//     selective broadcast, Sec. 5.2);
//   - static reference categories run Round-y (perfect fairness, full
//     coverage).
//
// The example replays a Poisson/exponential update stream (Sec. 6.1),
// reports the realized update overhead per strategy, verifies the
// cushion keeps the lookup failure time small, and injects failures.
//
//	go run ./examples/yellowpages
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
)

const (
	numServers = 10
	steady     = 100 // sites per category at steady state
	target     = 10  // users want ~10 sites per query
	cushion    = 4
	updates    = 10000
)

func main() {
	ctx := context.Background()
	rng := stats.NewRNG(7)

	cl := cluster.New(numServers, rng.Split())
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(3),
		core.WithClassifier(func(key string) (core.Config, bool) {
			if strings.HasPrefix(key, "churn/") {
				// x = t + b (Sec. 5.2).
				return core.Config{Scheme: core.Fixed, X: target + cushion}, true
			}
			return core.Config{Scheme: core.RoundRobin, Y: 2}, true
		}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Two categories with identical content and churn, managed by the
	// two strategies.
	lifetime, err := experiments.DefaultLifetime("exp", 10, steady)
	if err != nil {
		log.Fatal(err)
	}
	stream, err := experiments.Generate(rng.Split(), experiments.StreamConfig{
		MeanArrivalGap: 10,
		SteadyState:    steady,
		Lifetime:       lifetime,
		Updates:        updates,
	})
	if err != nil {
		log.Fatal(err)
	}
	categories := []string{"churn/news", "stable/news"}
	for _, cat := range categories {
		urls := make([]core.Entry, len(stream.Initial))
		for i, v := range stream.Initial {
			urls[i] = "http://" + v + ".example.com"
		}
		if err := svc.Place(ctx, cat, urls); err != nil {
			log.Fatalf("place %s: %v", cat, err)
		}
	}
	cl.ResetMessages()

	// Replay the same churn through both categories, tracking the
	// fraction of time the Fixed-x category would fail a t=10 query.
	failTime, totalTime := 0.0, 0.0
	node0 := cl.Node(0)
	err = experiments.ReplayTimed(stream.Events, func(ev experiments.Event) error {
		url := "http://" + ev.Entry + ".example.com"
		for _, cat := range categories {
			var err error
			if ev.Kind == experiments.OpAdd {
				err = svc.Add(ctx, cat, url)
			} else {
				err = svc.Delete(ctx, cat, url)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}, func(from, to float64) error {
		d := to - from
		totalTime += d
		if node0.LocalLen("churn/news") < target {
			failTime += d
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("replayed %d updates through both categories\n", updates)
	fmt.Printf("  total server messages: %d (both strategies combined)\n", cl.Messages())
	fmt.Printf("  Fixed-%d thin time:     %.3f%% of execution (cushion b=%d)\n",
		target+cushion, 100*failTime/totalTime, cushion)
	fmt.Printf("  storage now: churn/news=%d entries, stable/news=%d entries\n",
		cl.TotalStorage("churn/news"), cl.TotalStorage("stable/news"))

	// Query both categories.
	for _, cat := range categories {
		res, err := svc.PartialLookup(ctx, cat, target)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\npartial_lookup(%q, %d): %d URLs from %d server(s), e.g.:\n",
			cat, target, len(res.Entries), res.Contacted)
		for i, u := range res.Entries {
			if i == 3 {
				fmt.Println("    ...")
				break
			}
			fmt.Println("   ", u)
		}
	}

	// Failures: lose 4 of 10 servers; both categories keep answering.
	for _, s := range []int{1, 4, 6, 9} {
		cl.Fail(s)
	}
	fmt.Println("\nafter failing servers 1, 4, 6, 9:")
	for _, cat := range categories {
		ok, thin := 0, 0
		for q := 0; q < 1000; q++ {
			res, err := svc.PartialLookup(ctx, cat, target)
			if err != nil {
				log.Fatal(err)
			}
			if res.Satisfied(target) {
				ok++
			} else {
				thin++
			}
		}
		fmt.Printf("  %-12s %4d/1000 satisfied, %d thin answers\n", cat, ok, thin)
	}
}
