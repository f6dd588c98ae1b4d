package node

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/stats"
)

// hashAssignRef is HashAssign as it was written before it ran on every
// client update, with a map to dedup. It is the reference the
// scan-deduped version must reproduce.
func hashAssignRef(v string, y, n int, seed uint64) []int {
	if n <= 0 || y <= 0 {
		return nil
	}
	h := fnv.New64a()
	h.Write([]byte(v))
	base := h.Sum64() ^ seed
	targets := make([]int, 0, y)
	seen := make(map[int]bool, y)
	for i := 0; i < y; i++ {
		z := stats.Mix64(base + uint64(i+1)*0x9e3779b97f4a7c15)
		target := int(z % uint64(n))
		if !seen[target] {
			seen[target] = true
			targets = append(targets, target)
		}
	}
	return targets
}

// TestHashAssignMatchesReference pins every assignment — which servers
// and in which order — to the reference, for HashAssign and its append
// form, so placement, goldens and WAL
// contents cannot move: many entries (the empty one and non-ASCII ones
// included), n from 0 to 8, y from 0 to n+2 and several family seeds.
func TestHashAssignMatchesReference(t *testing.T) {
	entries := []string{"", "v", "é", "\x00\xff"}
	for i := 0; i < 300; i++ {
		entries = append(entries, fmt.Sprintf("k%05d/%02d", i, i%16), fmt.Sprintf("v%d", i))
	}
	for _, seed := range []uint64{0, 1, 7, 42, 1 << 63, ^uint64(0)} {
		for n := 0; n <= 8; n++ {
			for y := 0; y <= n+2; y++ {
				for _, v := range entries {
					want := hashAssignRef(v, y, n, seed)
					if got := HashAssign(v, y, n, seed); !slices.Equal(got, want) {
						t.Fatalf("HashAssign(%q, y=%d, n=%d, seed=%d) = %v, want %v", v, y, n, seed, got, want)
					}
					// The append form leaves dst's prefix alone, even where
					// it holds one of v's homes.
					prefix := []int{0, 99}
					if got := AppendHashHomes(slices.Clone(prefix), v, y, n, seed); !slices.Equal(got, append(prefix, want...)) {
						t.Fatalf("AppendHashHomes(%v, %q, y=%d, n=%d, seed=%d) = %v, want %v after the prefix", prefix, v, y, n, seed, got, want)
					}
				}
			}
		}
	}
}

// HashAssign runs on every Hash-y update at the client and at the
// coordinator: its result is the one allocation it may make. The append
// form runs per received entry on a client's lookup path, into a buffer
// with room, and makes none.
func TestHashAssignAllocatesOnlyItsResult(t *testing.T) {
	var sink []int
	allocs := testing.AllocsPerRun(200, func() { sink = HashAssign("k00017/xx", 2, 4, 0) })
	if allocs > 1 {
		t.Fatalf("HashAssign: %.1f allocs per call, want at most 1", allocs)
	}
	buf := make([]int, 0, 2)
	allocs = testing.AllocsPerRun(200, func() { sink = AppendHashHomes(buf[:0], "k00017/xx", 2, 4, 0) })
	if allocs > 0 {
		t.Fatalf("AppendHashHomes: %.1f allocs per call into a buffer with room, want 0", allocs)
	}
	_ = sink
}
