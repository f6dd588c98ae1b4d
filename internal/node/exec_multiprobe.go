package node

import (
	"hash/fnv"
	"sort"

	"repro/internal/stats"
)

// mpProbes is the number of ring probes per replica choice. The
// multi-probe paper shows k=21 probes give a peak-to-average load of
// ~1.1 with O(n) space — no virtual nodes — which is the configuration
// benchmarked against Hash-y in plsbench -exp ext-membership.
const mpProbes = 21

// MultiProbeAssign returns the distinct servers multi-probe consistent
// hashing assigns entry v to, in a cluster of n servers (min(y, n)
// targets, ascending probe preference). Each server owns a single ring
// point mixed from (seed, id) only — crucially independent of n — and
// each replica slot hashes the entry k times, keeping the probe whose
// clockwise successor distance to a server point is smallest. A
// membership change therefore only moves an (entry, replica) pair
// whose winning probe lands closer to the new point than to every
// surviving one, giving the near-minimal movement Hash-y's mod-n
// assignment lacks.
func MultiProbeAssign(v string, y, n int, seed uint64) []int {
	if n <= 0 || y <= 0 {
		return nil
	}
	if y > n {
		y = n
	}
	h := fnv.New64a()
	h.Write([]byte(v))
	base := h.Sum64()

	points := make([]uint64, n)
	for i := range points {
		points[i] = stats.Mix64(seed + uint64(i+1)*0xa24baed4963ee407)
	}
	// All k probes with their best (owner, clockwise distance), sorted
	// by distance: replica choices prefer the tightest probes, and ties
	// break on the probe index so the assignment is deterministic.
	type probe struct {
		point uint64
		dist  uint64
		owner int
	}
	probes := make([]probe, mpProbes)
	for j := range probes {
		p := stats.Mix64(base + uint64(j+1)*0x9e3779b97f4a7c15)
		best, bestDist := 0, points[0]-p
		for i := 1; i < n; i++ {
			if d := points[i] - p; d < bestDist {
				best, bestDist = i, d
			}
		}
		probes[j] = probe{point: p, dist: bestDist, owner: best}
	}
	sort.SliceStable(probes, func(a, b int) bool { return probes[a].dist < probes[b].dist })

	targets := make([]int, 0, y)
	chosen := make(map[int]bool, y)
	for _, pr := range probes {
		if len(targets) == y {
			return targets
		}
		if !chosen[pr.owner] {
			chosen[pr.owner] = true
			targets = append(targets, pr.owner)
		}
	}
	// Fewer than y distinct owners among the probes: walk the ring
	// clockwise from the best probe, taking successor points in order.
	rest := make([]int, 0, n-len(targets))
	for i := 0; i < n; i++ {
		if !chosen[i] {
			rest = append(rest, i)
		}
	}
	ref := probes[0].point
	sort.SliceStable(rest, func(a, b int) bool {
		return points[rest[a]]-ref < points[rest[b]]-ref
	})
	for _, i := range rest {
		if len(targets) == y {
			break
		}
		targets = append(targets, i)
	}
	return targets
}
