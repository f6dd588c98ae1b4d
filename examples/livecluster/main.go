// Livecluster: run a real partial-lookup deployment — five TCP server
// daemons on loopback sockets — and drive it through the public API,
// including the Sec. 7.1 "clients with preferences" variation: return
// the t *best* entries under a client cost function (here, simulated
// network latency to each file-sharing peer).
//
//	go run ./examples/livecluster
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/transport"
)

const numServers = 5

func main() {
	// Boot five daemons exactly as cmd/plsd does, on ephemeral ports.
	rng := stats.NewRNG(11)
	servers := make([]*transport.Server, numServers)
	addrs := make([]string, numServers)
	nodes := make([]*node.Node, numServers)
	for i := 0; i < numServers; i++ {
		nodes[i] = node.New(i, rng.Split())
		servers[i] = transport.NewServer(nodes[i])
		addr, err := servers[i].Listen("127.0.0.1:0")
		if err != nil {
			log.Fatalf("listen %d: %v", i, err)
		}
		addrs[i] = addr
	}
	peerClients := make([]*transport.Client, numServers)
	for i := 0; i < numServers; i++ {
		peerClients[i] = transport.NewClient(addrs)
		nodes[i].Attach(peerClients[i])
	}
	defer func() {
		for i := 0; i < numServers; i++ {
			peerClients[i].Close()
			servers[i].Close()
		}
	}()
	fmt.Printf("cluster up: %d plsd servers on %v\n", numServers, addrs)

	// A client anywhere on the network.
	client := transport.NewClient(addrs)
	defer client.Close()
	svc, err := core.NewService(client,
		core.WithSeed(23),
		core.WithDefaultConfig(core.Config{Scheme: core.RandomServer, X: 12}))
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()

	// 40 peers serve a file; each has a (simulated) measured latency.
	latency := make(map[core.Entry]float64, 40)
	entries := make([]core.Entry, 0, 40)
	latRng := stats.NewRNG(99)
	for i := 0; i < 40; i++ {
		peer := fmt.Sprintf("peer-%02d:6881", i)
		entries = append(entries, peer)
		latency[peer] = 5 + 295*latRng.Float64() // 5..300 ms
	}
	if err := svc.Place(ctx, "ubuntu.iso", entries); err != nil {
		log.Fatal(err)
	}

	// Plain partial lookup: any 3 peers.
	res, err := svc.PartialLookup(ctx, "ubuntu.iso", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nplain partial_lookup(ubuntu.iso, 3):")
	for _, p := range res.Entries[:3] {
		fmt.Printf("  %s (%.0f ms)\n", p, latency[p])
	}

	// Preference lookup (Sec. 7.1): the 3 lowest-latency peers among
	// an over-fetched candidate set.
	cost := func(v core.Entry) float64 { return latency[v] }
	pref, err := svc.PreferenceLookup(ctx, "ubuntu.iso", 3, 4, cost)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\npreference lookup (t=3, overfetch 4x, cost = latency):")
	for _, p := range pref.Entries {
		fmt.Printf("  %s (%.0f ms)\n", p, latency[p])
	}
	fmt.Printf("contacted %d servers to assemble the candidate set\n", pref.Contacted)

	// Show it holds up when a daemon actually dies.
	servers[2].Close()
	fmt.Println("\nkilled server 2; lookups fail over transparently:")
	pref, err = svc.PreferenceLookup(ctx, "ubuntu.iso", 3, 4, cost)
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range pref.Entries {
		fmt.Printf("  %s (%.0f ms)\n", p, latency[p])
	}
}
