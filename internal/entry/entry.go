// Package entry defines the Entry type managed by a partial lookup service
// and Set, a set of entries supporting cheap insertion, removal,
// membership tests, and uniform random sampling.
//
// Entries are opaque byte strings: the location of a resource (an IP
// address, a URL) or the resource itself. The paper treats all entries as
// equal-sized opaque values; Set mirrors that by storing entries without
// interpreting them.
package entry

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
)

// Entry is a single value associated with a key in the lookup service:
// an opaque non-empty string. Entry is the name signatures use for it,
// not a second type, so a []Entry is the []string a wire message carries.
type Entry = string

// Valid reports whether v may be stored in a Set: any string but the
// empty one.
func Valid(v Entry) bool { return v != "" }

// Sampler is the source of randomness Set needs for uniform sampling.
// *stats.RNG satisfies it; so does *rand.Rand from math/rand.
type Sampler interface {
	// IntN returns a uniform int in [0, n). It must panic if n <= 0.
	IntN(n int) int
}

// Set is an indexed set of entries. The zero value is an empty set ready
// for use. Set is not safe for concurrent use; callers (e.g. a server
// node) serialize access.
//
// Internally a Set keeps a dense slice of its members, so sampling is
// O(1) per draw. Up to scanMax members, membership is a scan of that
// slice, which beats a map on a server's few short entries and costs no
// allocation; a set that outgrows scanMax builds an index map once and
// keeps it. Each member also carries a monotonically increasing
// sequence number recording insertion order, which the Round-Robin
// strategy uses to find the oldest entry at a server ("head" entry,
// Fig. 10 of the paper).
type Set struct {
	members []Entry
	seqs    []uint64 // seqs[i] is the insertion sequence of members[i]
	// index, when not nil, maps each member to its slot. It is never nil
	// while the set holds more than scanMax members.
	index   map[Entry]int
	nextSeq uint64
}

// NewSet returns a set pre-sized for n members.
func NewSet(n int) *Set {
	s := &Set{
		members: make([]Entry, 0, n),
		seqs:    make([]uint64, 0, n),
	}
	if n > scanMax {
		s.index = make(map[Entry]int, n)
	}
	return s
}

// Len returns the number of members.
func (s *Set) Len() int { return len(s.members) }

// find returns v's slot in members, or -1.
func (s *Set) find(v Entry) int {
	if s.index == nil {
		return slices.Index(s.members, v)
	}
	if i, ok := s.index[v]; ok {
		return i
	}
	return -1
}

// Contains reports whether v is a member.
func (s *Set) Contains(v Entry) bool { return s.find(v) >= 0 }

// Add inserts v and reports whether it was not already present.
// Adding an invalid entry panics: it indicates a caller bug, not an
// environmental failure.
func (s *Set) Add(v Entry) bool {
	if !Valid(v) {
		panic("entry: Add called with invalid (empty) entry")
	}
	if s.find(v) >= 0 {
		return false
	}
	s.push(v, s.nextSeq)
	s.nextSeq++
	return true
}

// push appends v, a non-member, with insertion sequence seq, building
// the index when the set outgrows scanMax.
func (s *Set) push(v Entry, seq uint64) {
	if s.index == nil && len(s.members) >= scanMax {
		s.index = make(map[Entry]int, 2*len(s.members))
		for i, m := range s.members {
			s.index[m] = i
		}
	}
	if s.index != nil {
		s.index[v] = len(s.members)
	}
	s.members = append(s.members, v)
	s.seqs = append(s.seqs, seq)
}

// Remove deletes v and reports whether it was present.
func (s *Set) Remove(v Entry) bool {
	i := s.find(v)
	if i < 0 {
		return false
	}
	last := len(s.members) - 1
	moved := s.members[last]
	s.members[i] = moved
	s.seqs[i] = s.seqs[last]
	s.members = s.members[:last]
	s.seqs = s.seqs[:last]
	if s.index != nil {
		s.index[moved] = i
		delete(s.index, v)
	}
	return true
}

// At returns the i-th member in internal (unspecified) order.
// It panics if i is out of range.
func (s *Set) At(i int) Entry { return s.members[i] }

// Oldest returns the member with the smallest insertion sequence number,
// skipping any entries for which skip returns true. It returns false if
// no eligible member exists. skip may be nil.
//
// The Round-Robin delete protocol uses Oldest to pick the replacement
// entry at the head server (Sec. 5.4).
func (s *Set) Oldest(skip func(Entry) bool) (Entry, bool) {
	best := -1
	for i := range s.members {
		if skip != nil && skip(s.members[i]) {
			continue
		}
		if best == -1 || s.seqs[i] < s.seqs[best] {
			best = i
		}
	}
	if best == -1 {
		return "", false
	}
	return s.members[best], true
}

// SampleScratch holds the reusable buffers SampleInto samples through.
// A zero value is ready; buffers grow to the largest set sampled and
// are reused across calls. Not safe for concurrent use — pool one per
// in-flight lookup.
type SampleScratch struct {
	idx []int
	out []Entry
}

// SampleInto returns min(t, Len) distinct members chosen uniformly at
// random. This is the paper's server-side answer rule: "each contacted
// server returns t randomly selected entries stored on the server or
// all the entries if the total is less than t".
//
// It does not mutate the set: it performs a partial Fisher-Yates
// shuffle over sc's copy of the member indices. The returned slice
// aliases sc and is valid only until the next SampleInto with the same
// scratch; callers copy what they keep.
func (s *Set) SampleInto(r Sampler, t int, sc *SampleScratch) []Entry {
	if t <= 0 || s.Len() == 0 {
		return nil
	}
	n := s.Len()
	if cap(sc.out) < n {
		sc.out = make([]Entry, n)
	}
	if t >= n {
		sc.out = sc.out[:n]
		copy(sc.out, s.members)
		return sc.out
	}
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
	}
	sc.idx = sc.idx[:n]
	for i := range sc.idx {
		sc.idx[i] = i
	}
	sc.out = sc.out[:t]
	for i := 0; i < t; i++ {
		j := i + r.IntN(n-i)
		sc.idx[i], sc.idx[j] = sc.idx[j], sc.idx[i]
		sc.out[i] = s.members[sc.idx[i]]
	}
	return sc.out
}

// Sample is SampleInto through a scratch of its own: the returned slice
// is freshly allocated, and the draws from r are the same.
func (s *Set) Sample(r Sampler, t int) []Entry {
	return slices.Clone(s.SampleInto(r, t, new(SampleScratch)))
}

// Members returns a copy of the member slice in internal order.
func (s *Set) Members() []Entry {
	out := make([]Entry, len(s.members))
	copy(out, s.members)
	return out
}

// Clone returns a deep copy of the set, preserving insertion sequences.
func (s *Set) Clone() *Set {
	c := &Set{
		members: slices.Clone(s.members),
		seqs:    slices.Clone(s.seqs),
		nextSeq: s.nextSeq,
	}
	if len(s.members) > scanMax {
		c.index = maps.Clone(s.index)
	}
	return c
}

// Export returns the set's internal state for durability snapshots:
// members in internal slice order, their parallel insertion sequences,
// and the next sequence counter. The slices are copies. Internal order
// matters beyond set semantics — uniform sampling indexes it and
// Oldest compares the sequences — so crash recovery must restore both
// exactly for lookups to be byte-identical (see internal/store).
func (s *Set) Export() (members []Entry, seqs []uint64, nextSeq uint64) {
	members = make([]Entry, len(s.members))
	copy(members, s.members)
	seqs = make([]uint64, len(s.seqs))
	copy(seqs, s.seqs)
	return members, seqs, s.nextSeq
}

// RestoreSet rebuilds a set from Export output, reproducing internal
// order and insertion sequences bit-for-bit. It rejects inconsistent
// input (length mismatch, duplicate or invalid members, a sequence at
// or past nextSeq) rather than constructing a corrupt set.
func RestoreSet(members []Entry, seqs []uint64, nextSeq uint64) (*Set, error) {
	if len(members) != len(seqs) {
		return nil, fmt.Errorf("entry: restore with %d members but %d seqs", len(members), len(seqs))
	}
	s := NewSet(len(members))
	for i, v := range members {
		if !Valid(v) {
			return nil, fmt.Errorf("entry: restore with invalid entry at %d", i)
		}
		if s.find(v) >= 0 {
			return nil, fmt.Errorf("entry: restore with duplicate entry %q", v)
		}
		if seqs[i] >= nextSeq {
			return nil, fmt.Errorf("entry: restore seq %d >= nextSeq %d", seqs[i], nextSeq)
		}
		s.push(v, seqs[i])
	}
	s.nextSeq = nextSeq
	return s, nil
}

// Fresh returns an empty set whose insertion sequences continue s's,
// for an entry list replaced whole (a place). s is left as it is.
func (s *Set) Fresh() *Set { return &Set{nextSeq: s.nextSeq} }

// String renders the set sorted, for test failure messages.
func (s *Set) String() string {
	ms := s.Members()
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	var b strings.Builder
	b.WriteByte('{')
	for i, m := range ms {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(m)
	}
	b.WriteByte('}')
	return b.String()
}

// Union returns the number of distinct entries across the given sets.
func Union(sets ...*Set) int {
	seen := make(map[Entry]struct{})
	for _, s := range sets {
		if s == nil {
			continue
		}
		for _, m := range s.members {
			seen[m] = struct{}{}
		}
	}
	return len(seen)
}

// scanMax is the size up to which a Set, and Dedup's merged answer,
// find a member by scanning: a server's share of a key and a partial
// lookup's answer are a dozen or so short strings, which a scan beats a
// map on without allocating one.
const scanMax = 32

// Dedup appends to dst, whose entries are distinct, the entries of src
// not already in it, and returns the extended dst. Clients use it to
// merge answers from multiple servers during a partial lookup. dst is
// grown once per call, to hold all of src.
// seen is nil until dst outgrows scanMax; from then on it is the set of
// dst's entries, and the caller passes the returned one back in.
func Dedup(dst []Entry, seen map[Entry]struct{}, src []Entry) ([]Entry, map[Entry]struct{}) {
	dst = slices.Grow(dst, len(src))
	for _, v := range src {
		if seen == nil && len(dst) >= scanMax {
			seen = make(map[Entry]struct{}, 2*len(dst))
			for _, have := range dst {
				seen[have] = struct{}{}
			}
		}
		if seen == nil {
			if slices.Contains(dst, v) {
				continue
			}
		} else {
			if _, ok := seen[v]; ok {
				continue
			}
			seen[v] = struct{}{}
		}
		dst = append(dst, v)
	}
	return dst, seen
}

// Synthetic returns h synthetic entries "v1".."vh" for tests, examples,
// and the benchmark harness.
func Synthetic(h int) []Entry {
	out := make([]Entry, h)
	for i := range out {
		out[i] = fmt.Sprintf("v%d", i+1)
	}
	return out
}
