package node

import (
	"hash/fnv"
	"slices"
)

// HashAssign returns the distinct servers f1(v)..fy(v) that Hash-y
// assigns entry v to, in a cluster of n servers. The paper leaves the
// hash family abstract; we hash the entry once with FNV-1a and derive
// each f_i by a SplitMix64 finalizer over (hash + seed + i·φ) — raw FNV
// bits are too structured for short keys like "v17" to behave as
// independent uniform functions (documented substitution in DESIGN.md).
// seed selects the family; experiments draw a fresh one per run to
// average over families, as the paper's simulations do.
func HashAssign(v string, y, n int, seed uint64) []int {
	if n <= 0 || y <= 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(v))
	base := h.Sum64() ^ seed
	targets := make([]int, 0, min(y, n))
	for i := 0; i < y; i++ {
		z := mix64(base + uint64(i+1)*0x9e3779b97f4a7c15)
		if target := int(z % uint64(n)); !slices.Contains(targets, target) {
			targets = append(targets, target)
		}
	}
	return targets
}
