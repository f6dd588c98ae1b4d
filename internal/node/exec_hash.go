package node

import (
	"slices"

	"repro/internal/stats"
)

// HashAssign returns the distinct servers f1(v)..fy(v) that Hash-y
// assigns entry v to, in a cluster of n servers. The paper leaves the
// hash family abstract; we hash the entry once with FNV-1a and derive
// each f_i by a SplitMix64 finalizer over (hash + seed + i·φ) — raw FNV
// bits are too structured for short keys like "v17" to behave as
// independent uniform functions (a substitution; see DESIGN.md §1).
// seed selects the family; experiments draw a fresh one per run to
// average over families, as the paper's simulations do.
func HashAssign(v string, y, n int, seed uint64) []int {
	if n <= 0 || y <= 0 {
		return nil
	}
	return AppendHashHomes(make([]int, 0, min(y, n)), v, y, n, seed)
}

// AppendHashHomes appends HashAssign(v, y, n, seed) to dst and returns
// the extended slice. A dst with room for min(y, n) more servers is not
// reallocated, so a caller with a stack buffer pays nothing per entry.
// Homes already in dst do not count as duplicates.
func AppendHashHomes(dst []int, v string, y, n int, seed uint64) []int {
	if n <= 0 || y <= 0 {
		return dst
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) // FNV-1a, inline: hash/fnv's Write would copy v
	for i := 0; i < len(v); i++ {
		h ^= uint64(v[i])
		h *= prime64
	}
	base := h ^ seed
	start := len(dst)
	for i := 0; i < y; i++ {
		z := stats.Mix64(base + uint64(i+1)*0x9e3779b97f4a7c15)
		if target := int(z % uint64(n)); !slices.Contains(dst[start:], target) {
			dst = append(dst, target)
		}
	}
	return dst
}
