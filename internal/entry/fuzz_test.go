package entry

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/stats"
)

// refSet is the reference model FuzzSetOps holds Set to: the indexed set
// as it was before small sets dropped their map — a member slice, its
// insertion sequences and a map from member to slot, with swap-remove
// and the partial Fisher-Yates draw written out once more.
type refSet struct {
	members []Entry
	seqs    []uint64
	index   map[Entry]int
	nextSeq uint64
}

func newRefSet() *refSet { return &refSet{index: map[Entry]int{}} }

func (r *refSet) add(v Entry) bool {
	if _, ok := r.index[v]; ok {
		return false
	}
	r.index[v] = len(r.members)
	r.members = append(r.members, v)
	r.seqs = append(r.seqs, r.nextSeq)
	r.nextSeq++
	return true
}

func (r *refSet) remove(v Entry) bool {
	i, ok := r.index[v]
	if !ok {
		return false
	}
	last := len(r.members) - 1
	r.members[i], r.seqs[i] = r.members[last], r.seqs[last]
	r.index[r.members[i]] = i
	r.members, r.seqs = r.members[:last], r.seqs[:last]
	delete(r.index, v)
	return true
}

func (r *refSet) oldest(skip Entry) (Entry, bool) {
	best := -1
	for i, m := range r.members {
		if m != skip && (best < 0 || r.seqs[i] < r.seqs[best]) {
			best = i
		}
	}
	if best < 0 {
		return "", false
	}
	return r.members[best], true
}

func (r *refSet) sample(rng Sampler, t int) []Entry {
	n := len(r.members)
	if t <= 0 || n == 0 {
		return nil
	}
	if t >= n {
		return slices.Clone(r.members)
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	out := make([]Entry, t)
	for i := range out {
		j := i + rng.IntN(n-i)
		idx[i], idx[j] = idx[j], idx[i]
		out[i] = r.members[idx[i]]
	}
	return out
}

func (r *refSet) clone() *refSet {
	c := &refSet{members: slices.Clone(r.members), seqs: slices.Clone(r.seqs), index: map[Entry]int{}, nextSeq: r.nextSeq}
	for v, i := range r.index {
		c.index[v] = i
	}
	return c
}

// fuzzPool is the fuzzer's entry alphabet: half again scanMax, so runs
// of adds cross the size at which a set builds its index and runs of
// removes bring it back under.
var fuzzPool = func() []Entry {
	out := make([]Entry, scanMax+scanMax/2)
	for i := range out {
		out[i] = fmt.Sprintf("e%d", i)
	}
	return out
}()

// checkSet fails unless s holds exactly what ref holds — member order,
// sequences, next sequence — and its index, if any, is complete.
func checkSet(t *testing.T, step int, s *Set, ref *refSet) {
	t.Helper()
	members, seqs, next := s.Export()
	if !slices.Equal(members, ref.members) || !slices.Equal(seqs, ref.seqs) || next != ref.nextSeq {
		t.Fatalf("step %d: set is (%v, %v, %d), model is (%v, %v, %d)",
			step, members, seqs, next, ref.members, ref.seqs, ref.nextSeq)
	}
	if s.index == nil {
		if s.Len() > scanMax {
			t.Fatalf("step %d: %d members and no index", step, s.Len())
		}
		return
	}
	if len(s.index) != s.Len() {
		t.Fatalf("step %d: index holds %d of %d members", step, len(s.index), s.Len())
	}
	for i, m := range s.members {
		if s.index[m] != i {
			t.Fatalf("step %d: index puts %q at %d, it is at %d", step, m, s.index[m], i)
		}
	}
}

// FuzzSetOps drives Set through random sequences of every operation —
// including Clone and an Export/RestoreSet round trip — that cross the
// scanMax threshold both ways, and holds each step to refSet: the same
// answers, the same member order, sequences and next sequence, and the
// same sample draws from same-seeded RNGs. A clone set aside must not
// change when the set it was taken from does.
func FuzzSetOps(f *testing.F) {
	grow := []byte{}
	for i := 0; i < len(fuzzPool); i++ {
		grow = append(grow, 0, byte(i))
	}
	f.Add(uint64(1), []byte{})
	f.Add(uint64(2), append(slices.Clone(grow), 9, 10, 7, 1, 8, 0, 3, 5, 3, 40, 9, 20, 6, 0, 7, 0, 4, 7))
	shrink := slices.Clone(grow)
	for i := 0; i < len(fuzzPool); i++ {
		shrink = append(shrink, 3, byte(i*7), 9, byte(i))
	}
	f.Add(uint64(3), append(shrink, 7, 1, 0, 99, 8, 0, 10, 0, 1, 3, 6, 1, 9, 3))
	f.Fuzz(func(t *testing.T, seed uint64, ops []byte) {
		s, ref := NewSet(0), newRefSet()
		rs, rr := stats.NewRNG(seed), stats.NewRNG(seed)
		var sc SampleScratch
		type frozen struct {
			s   *Set
			ref *refSet
		}
		var aside []frozen
		for step := 0; step+1 < len(ops); step += 2 {
			arg := int(ops[step+1])
			v := fuzzPool[arg%len(fuzzPool)]
			switch ops[step] % 11 {
			case 0, 1, 2:
				if got, want := s.Add(v), ref.add(v); got != want {
					t.Fatalf("step %d: Add(%q) = %v, model %v", step, v, got, want)
				}
			case 3, 4:
				if got, want := s.Remove(v), ref.remove(v); got != want {
					t.Fatalf("step %d: Remove(%q) = %v, model %v", step, v, got, want)
				}
			case 5:
				_, want := ref.index[v]
				if got := s.Contains(v); got != want {
					t.Fatalf("step %d: Contains(%q) = %v, model %v", step, v, got, want)
				}
			case 6:
				got, ok := s.Oldest(func(e Entry) bool { return e == v })
				want, wok := ref.oldest(v)
				if got != want || ok != wok {
					t.Fatalf("step %d: Oldest(skip %q) = %q,%v, model %q,%v", step, v, got, ok, want, wok)
				}
			case 7:
				c := s.Clone()
				checkSet(t, step, c, ref)
				if arg%2 == 0 {
					s = c
				} else {
					aside = append(aside, frozen{c, ref.clone()})
				}
			case 8:
				r, err := RestoreSet(s.Export())
				if err != nil {
					t.Fatalf("step %d: RestoreSet of an export: %v", step, err)
				}
				s = r
			case 9:
				n := arg%(len(fuzzPool)+4) - 2
				got, want := s.SampleInto(rs, n, &sc), ref.sample(rr, n)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: SampleInto(t=%d) = %v, model %v", step, n, got, want)
				}
			case 10:
				s = s.Fresh()
				ref.members, ref.seqs = ref.members[:0], ref.seqs[:0]
				clear(ref.index)
			}
			checkSet(t, step, s, ref)
		}
		for _, v := range fuzzPool {
			if _, want := ref.index[v]; s.Contains(v) != want {
				t.Fatalf("end: Contains(%q) = %v, model %v", v, !want, want)
			}
		}
		for i, a := range aside {
			checkSet(t, -1-i, a.s, a.ref)
		}
	})
}
