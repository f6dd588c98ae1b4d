// Musicshare: the paper's motivating workload — a Napster-style music
// sharing service where song titles map to the peers holding copies.
//
// The example demonstrates the intro's two claims about partial
// lookups versus a traditional hashed lookup service:
//
//  1. Hot-spot resistance: a traditional hashing service maps a hot
//     key to ONE server, which takes the whole query load; a partial
//     lookup service spreads the same load over all servers.
//
//  2. Provider fairness: Round-y returns each replica with equal
//     probability, so no single peer is hammered for a popular song.
//
//     go run ./examples/musicshare
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/stats"
)

const (
	numServers = 10
	numSongs   = 200
	numPeers   = 500
	lookups    = 20000
)

func main() {
	ctx := context.Background()
	rng := stats.NewRNG(2024)

	cl := cluster.New(numServers, rng.Split())
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(5),
		// Song catalogs churn as peers join and leave, and providers
		// should be load-balanced: Round-2 gives zero unfairness.
		core.WithDefaultConfig(core.Config{Scheme: core.RoundRobin, Y: 2}),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Build the catalog: song i is held by a random set of peers;
	// popular songs (low rank) have many replicas.
	songs := make([]string, numSongs)
	for i := range songs {
		songs[i] = fmt.Sprintf("song-%03d", i)
		replicas := 5 + (numSongs-i)/4 // popular songs have up to ~55 replicas
		entries := make([]core.Entry, 0, replicas)
		seen := map[int]bool{}
		for len(entries) < replicas {
			p := rng.IntN(numPeers)
			if !seen[p] {
				seen[p] = true
				entries = append(entries, fmt.Sprintf("peer-%03d:6881", p))
			}
		}
		if err := svc.Place(ctx, songs[i], entries); err != nil {
			log.Fatalf("place %s: %v", songs[i], err)
		}
	}
	fmt.Printf("catalog: %d songs across %d servers, %d total replica entries\n",
		numSongs, numServers, totalStorage(cl, songs))

	// Query load follows a Zipf popularity curve: song-000 is hot.
	popularity := stats.NewZipf(numSongs, 1.1)

	// Per-server query counts under the partial lookup service.
	partialLoad := make([]int, numServers)
	peerReturns := make(map[core.Entry]int)
	satisfied := 0
	before := serverMessages(cl)
	for q := 0; q < lookups; q++ {
		song := songs[popularity.Sample(rng)-1]
		res, err := svc.PartialLookup(ctx, song, 3) // "two or three sites to contact"
		if err != nil {
			log.Fatal(err)
		}
		if res.Satisfied(3) {
			satisfied++
		}
		for _, p := range res.Entries {
			peerReturns[p]++
		}
	}
	for s := 0; s < numServers; s++ {
		partialLoad[s] = int(serverMessages(cl)[s] - before[s])
	}

	// A traditional hashing service sends every query for a key to
	// hash(key): the hot song's server takes the whole hot load.
	hashedLoad := make([]int, numServers)
	for q := 0; q < lookups; q++ {
		song := songs[popularity.Sample(rng)-1]
		hashedLoad[hashKey(song)%numServers]++
	}

	fmt.Printf("\n%d partial lookups (t=3), %.1f%% satisfied\n", lookups, 100*float64(satisfied)/float64(lookups))
	fmt.Println("\nper-server query load — partial lookup vs traditional key hashing:")
	fmt.Printf("%-8s %14s %14s\n", "server", "partial-lookup", "key-hashing")
	maxP, maxH := 0, 0
	for s := 0; s < numServers; s++ {
		fmt.Printf("%-8d %14d %14d\n", s, partialLoad[s], hashedLoad[s])
		if partialLoad[s] > maxP {
			maxP = partialLoad[s]
		}
		if hashedLoad[s] > maxH {
			maxH = hashedLoad[s]
		}
	}
	fmt.Printf("hottest server takes %.1f%% of load with partial lookups vs %.1f%% with key hashing\n",
		100*float64(maxP)/float64(lookups), 100*float64(maxH)/float64(lookups))

	// Provider fairness for the hottest song: Round-y spreads returns
	// evenly over its replicas.
	fmt.Println("\nfairness: times each peer was returned (hottest song's replicas):")
	hot := songs[0]
	hotCounts := map[core.Entry]int{}
	for q := 0; q < 5000; q++ {
		res, err := svc.PartialLookup(ctx, hot, 3)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range res.Entries {
			hotCounts[p]++
		}
	}
	minC, maxC := -1, 0
	for _, c := range hotCounts {
		if minC == -1 || c < minC {
			minC = c
		}
		if c > maxC {
			maxC = c
		}
	}
	fmt.Printf("  %d replicas, least-returned %d times, most-returned %d times (ratio %.2f)\n",
		len(hotCounts), minC, maxC, float64(maxC)/float64(minC))

	// Churn: a peer goes offline — remove it from every song it served.
	gone := "peer-007:6881"
	removed := 0
	for _, song := range songs {
		if err := svc.Delete(ctx, song, gone); err != nil {
			log.Fatal(err)
		}
		removed++
	}
	fmt.Printf("\npeer %s went offline: issued delete on all %d songs; lookups keep working:\n", gone, removed)
	res, err := svc.PartialLookup(ctx, songs[0], 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  partial_lookup(%s, 3) -> %v\n", songs[0], res.Entries)
}

func totalStorage(cl *cluster.Cluster, keys []string) int {
	total := 0
	for _, k := range keys {
		total += cl.TotalStorage(k)
	}
	return total
}

// serverMessages snapshots per-server processed-message counters.
func serverMessages(cl *cluster.Cluster) []int64 {
	out := make([]int64, cl.N())
	for s := 0; s < cl.N(); s++ {
		out[s] = cl.ProcessedBy(s)
	}
	return out
}

// hashKey is the traditional service's key-to-server hash.
func hashKey(key string) int {
	h := 0
	for _, c := range key {
		h = h*31 + int(c)
	}
	if h < 0 {
		h = -h
	}
	return h
}
