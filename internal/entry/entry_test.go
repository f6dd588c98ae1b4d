package entry

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/stats"
)

func TestSetAddRemoveContains(t *testing.T) {
	s := NewSet(4)
	if s.Len() != 0 {
		t.Fatalf("new set Len = %d, want 0", s.Len())
	}
	if !s.Add("a") {
		t.Fatal("Add(a) on empty set returned false")
	}
	if s.Add("a") {
		t.Fatal("second Add(a) returned true")
	}
	if !s.Contains("a") {
		t.Fatal("Contains(a) = false after Add")
	}
	if s.Contains("b") {
		t.Fatal("Contains(b) = true, never added")
	}
	if !s.Remove("a") {
		t.Fatal("Remove(a) returned false")
	}
	if s.Remove("a") {
		t.Fatal("second Remove(a) returned true")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after removing only member, want 0", s.Len())
	}
}

func TestSetZeroValueUsable(t *testing.T) {
	var s Set
	if s.Contains("x") {
		t.Fatal("zero set contains x")
	}
	if s.Remove("x") {
		t.Fatal("zero set removed x")
	}
	if !s.Add("x") {
		t.Fatal("zero set Add failed")
	}
	if !s.Contains("x") {
		t.Fatal("zero set missing x after Add")
	}
}

func TestSetAddInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(\"\") did not panic")
		}
	}()
	NewSet(0).Add("")
}

func TestSetRemoveMiddleKeepsIndexConsistent(t *testing.T) {
	s := NewSet(8)
	for i := 0; i < 8; i++ {
		s.Add(Entry(fmt.Sprintf("v%d", i)))
	}
	s.Remove("v3") // forces swap-with-last
	for i := 0; i < 8; i++ {
		v := Entry(fmt.Sprintf("v%d", i))
		want := i != 3
		if got := s.Contains(v); got != want {
			t.Errorf("Contains(%s) = %v, want %v", v, got, want)
		}
	}
	if s.Len() != 7 {
		t.Fatalf("Len = %d, want 7", s.Len())
	}
}

func TestSetOldest(t *testing.T) {
	s := NewSet(4)
	s.Add("first")
	s.Add("second")
	s.Add("third")
	if v, ok := s.Oldest(nil); !ok || v != "first" {
		t.Fatalf("Oldest = %q,%v, want first,true", v, ok)
	}
	// Skipping the oldest yields the next-oldest.
	v, ok := s.Oldest(func(e Entry) bool { return e == "first" })
	if !ok || v != "second" {
		t.Fatalf("Oldest(skip first) = %q,%v, want second,true", v, ok)
	}
	// Removal then re-add makes it the newest.
	s.Remove("first")
	s.Add("first")
	if v, _ := s.Oldest(nil); v != "second" {
		t.Fatalf("Oldest after re-add = %q, want second", v)
	}
	// All skipped.
	if _, ok := s.Oldest(func(Entry) bool { return true }); ok {
		t.Fatal("Oldest with skip-all returned ok")
	}
}

func TestSetSampleSizeAndDistinctness(t *testing.T) {
	rng := stats.NewRNG(1)
	s := NewSet(10)
	for _, v := range Synthetic(10) {
		s.Add(v)
	}
	tests := []struct {
		t    int
		want int
	}{
		{t: 0, want: 0},
		{t: -3, want: 0},
		{t: 1, want: 1},
		{t: 5, want: 5},
		{t: 10, want: 10},
		{t: 25, want: 10}, // capped at Len
	}
	for _, tc := range tests {
		got := s.Sample(rng, tc.t)
		if len(got) != tc.want {
			t.Errorf("Sample(t=%d) returned %d entries, want %d", tc.t, len(got), tc.want)
		}
		seen := make(map[Entry]bool)
		for _, v := range got {
			if seen[v] {
				t.Errorf("Sample(t=%d) returned duplicate %q", tc.t, v)
			}
			seen[v] = true
			if !s.Contains(v) {
				t.Errorf("Sample(t=%d) returned non-member %q", tc.t, v)
			}
		}
	}
}

func TestSetSampleDoesNotMutate(t *testing.T) {
	rng := stats.NewRNG(2)
	s := NewSet(5)
	for _, v := range Synthetic(5) {
		s.Add(v)
	}
	before := s.String()
	s.Sample(rng, 3)
	if after := s.String(); after != before {
		t.Fatalf("Sample mutated set: before %s, after %s", before, after)
	}
}

func TestSetSampleUniform(t *testing.T) {
	// Each of 10 entries should appear in a t=3 sample with p = 0.3;
	// over 30000 trials the count is within 5 sigma of the mean.
	rng := stats.NewRNG(3)
	s := NewSet(10)
	for _, v := range Synthetic(10) {
		s.Add(v)
	}
	const trials = 30000
	counts := make(map[Entry]int)
	for i := 0; i < trials; i++ {
		for _, v := range s.Sample(rng, 3) {
			counts[v]++
		}
	}
	mean := trials * 3 / 10
	sigma := 79.4 // sqrt(30000*0.3*0.7)
	for _, v := range Synthetic(10) {
		diff := float64(counts[v] - mean)
		if diff < -5*sigma || diff > 5*sigma {
			t.Errorf("entry %s sampled %d times, want %d±%.0f", v, counts[v], mean, 5*sigma)
		}
	}
}

// One scratch serves sets of different sizes in turn, as a pooled one
// does on a node: each answer is what a scratch of its own gives for
// the same draws, whatever the buffers held before, and the answers
// cloned out earlier are not touched by later calls.
func TestSampleIntoReusesScratchAcrossSets(t *testing.T) {
	sets := make([]*Set, 0, 4)
	for _, n := range []int{12, 3, 30, 7} {
		s := NewSet(n)
		for _, v := range Synthetic(n) {
			s.Add(fmt.Sprintf("%d/%s", n, v))
		}
		sets = append(sets, s)
	}
	shared, fresh := stats.NewRNG(9), stats.NewRNG(9)
	var sc SampleScratch
	var kept, want [][]Entry
	for round := 0; round < 3; round++ {
		for _, s := range sets {
			for _, tt := range []int{2, 5, 40} {
				kept = append(kept, slices.Clone(s.SampleInto(shared, tt, &sc)))
				want = append(want, s.Sample(fresh, tt))
			}
		}
	}
	for i := range kept {
		if !slices.Equal(kept[i], want[i]) {
			t.Fatalf("answer %d through the shared scratch = %v, want %v", i, kept[i], want[i])
		}
	}
}

func TestSetClone(t *testing.T) {
	s := NewSet(3)
	s.Add("a")
	s.Add("b")
	c := s.Clone()
	c.Remove("a")
	c.Add("c")
	if !s.Contains("a") || s.Contains("c") {
		t.Fatal("mutating clone affected original")
	}
	if v, _ := c.Oldest(nil); v != "b" {
		t.Fatalf("clone Oldest = %q, want b (insertion order preserved)", v)
	}
}

func TestSetFresh(t *testing.T) {
	s := NewSet(3)
	s.Add("a")
	s.Add("b")
	f := s.Fresh()
	if f.Len() != 0 || f.Contains("a") {
		t.Fatal("Fresh kept members")
	}
	if s.Len() != 2 || !s.Contains("a") {
		t.Fatal("Fresh changed the set it continues")
	}
	f.Add("c")
	if members, seqs, next := f.Export(); len(members) != 1 || seqs[0] != 2 || next != 3 {
		t.Fatalf("after Fresh and Add: %v %v next %d, want c numbered 2 after a and b", members, seqs, next)
	}
}

func TestUnion(t *testing.T) {
	a := NewSet(3)
	a.Add("x")
	a.Add("y")
	b := NewSet(3)
	b.Add("y")
	b.Add("z")
	if got := Union(a, b); got != 3 {
		t.Fatalf("Union = %d, want 3", got)
	}
	if got := Union(a, nil, b); got != 3 {
		t.Fatalf("Union with nil = %d, want 3", got)
	}
	if got := Union(); got != 0 {
		t.Fatalf("Union() = %d, want 0", got)
	}
}

func TestDedup(t *testing.T) {
	out, seen := Dedup(nil, nil, []Entry{"a", "b", "a"})
	out, seen = Dedup(out, seen, []Entry{"b", "c"})
	if len(out) != 3 || out[0] != "a" || out[1] != "b" || out[2] != "c" {
		t.Fatalf("Dedup = %v, want [a b c]", out)
	}
	if seen != nil {
		t.Fatalf("Dedup built a map for %d entries", len(out))
	}
}

// TestDedupPastScanMax: the result is the same — first occurrences, in
// order — on either side of the switch from scanning to the map, also
// when one call crosses it.
func TestDedupPastScanMax(t *testing.T) {
	src := append(Synthetic(3*scanMax), Synthetic(3*scanMax)...)
	var want []Entry
	have := make(map[Entry]bool)
	for _, v := range src {
		if !have[v] {
			have[v] = true
			want = append(want, v)
		}
	}
	for _, chunk := range []int{1, 7, scanMax, len(src)} {
		var out []Entry
		var seen map[Entry]struct{}
		for i := 0; i < len(src); i += chunk {
			out, seen = Dedup(out, seen, src[i:min(i+chunk, len(src))])
		}
		if !slices.Equal(out, want) {
			t.Fatalf("chunks of %d: Dedup = %v, want %v", chunk, out, want)
		}
		if seen == nil {
			t.Fatalf("chunks of %d: no map after %d entries", chunk, len(out))
		}
	}
}

func TestSynthetic(t *testing.T) {
	got := Synthetic(3)
	want := []Entry{"v1", "v2", "v3"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Synthetic(3) = %v, want %v", got, want)
		}
	}
	if len(Synthetic(0)) != 0 {
		t.Fatal("Synthetic(0) not empty")
	}
}

// TestSetQuickMatchesMap property-tests the indexed set against a plain
// map under a random operation sequence.
func TestSetQuickMatchesMap(t *testing.T) {
	type op struct {
		Add bool
		Key uint8
	}
	check := func(ops []op) bool {
		s := NewSet(0)
		ref := make(map[Entry]bool)
		for _, o := range ops {
			v := Entry(fmt.Sprintf("k%d", o.Key%32))
			if o.Add {
				if s.Add(v) == ref[v] {
					return false // Add returns true iff not already present
				}
				ref[v] = true
			} else {
				if s.Remove(v) != ref[v] {
					return false
				}
				delete(ref, v)
			}
		}
		if s.Len() != len(ref) {
			return false
		}
		for v := range ref {
			if !s.Contains(v) {
				return false
			}
		}
		for _, v := range s.Members() {
			if !ref[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSetQuickSampleProperties property-tests Sample: correct size,
// distinct, members-only, for arbitrary set sizes and targets.
func TestSetQuickSampleProperties(t *testing.T) {
	rng := stats.NewRNG(99)
	check := func(size uint8, target int8) bool {
		n := int(size % 64)
		s := NewSet(n)
		for _, v := range Synthetic(n) {
			s.Add(v)
		}
		got := s.Sample(rng, int(target))
		wantLen := int(target)
		if wantLen < 0 {
			wantLen = 0
		}
		if wantLen > n {
			wantLen = n
		}
		if len(got) != wantLen {
			return false
		}
		seen := make(map[Entry]bool, len(got))
		for _, v := range got {
			if seen[v] || !s.Contains(v) {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEntryValid(t *testing.T) {
	if Valid("") {
		t.Fatal("empty entry reported valid")
	}
	if !Valid("x") {
		t.Fatal("non-empty entry reported invalid")
	}
}

func TestSetString(t *testing.T) {
	s := NewSet(3)
	s.Add("b")
	s.Add("a")
	if got := s.String(); got != "{a, b}" {
		t.Fatalf("String = %q, want {a, b}", got)
	}
	if got := NewSet(0).String(); got != "{}" {
		t.Fatalf("empty String = %q, want {}", got)
	}
}

func TestExportRestoreRoundTrip(t *testing.T) {
	s := NewSet(0)
	for _, v := range []Entry{"a", "b", "c", "d"} {
		s.Add(v)
	}
	s.Remove("b") // swap-with-last perturbs internal order
	s.Add("e")

	members, seqs, next := s.Export()
	r, err := RestoreSet(members, seqs, next)
	if err != nil {
		t.Fatal(err)
	}
	rm, rs, rn := r.Export()
	if !reflect.DeepEqual(rm, members) || !reflect.DeepEqual(rs, seqs) || rn != next {
		t.Fatalf("restore round trip: got (%v,%v,%d), want (%v,%v,%d)", rm, rs, rn, members, seqs, next)
	}
	// Sequence-dependent behavior must match: Oldest picks the same member.
	want, _ := s.Oldest(nil)
	got, _ := r.Oldest(nil)
	if got != want {
		t.Fatalf("Oldest after restore = %q, want %q", got, want)
	}
	// Mutation after restore continues the sequence counter.
	r.Add("f")
	if _, rs2, _ := r.Export(); rs2[len(rs2)-1] != next {
		t.Fatalf("seq after restore = %d, want %d", rs2[len(rs2)-1], next)
	}
}

func TestRestoreSetRejectsCorruptInput(t *testing.T) {
	cases := []struct {
		name    string
		members []Entry
		seqs    []uint64
		next    uint64
	}{
		{"length mismatch", []Entry{"a"}, nil, 1},
		{"invalid entry", []Entry{""}, []uint64{0}, 1},
		{"duplicate", []Entry{"a", "a"}, []uint64{0, 1}, 2},
		{"seq past next", []Entry{"a"}, []uint64{5}, 3},
	}
	for _, c := range cases {
		if _, err := RestoreSet(c.members, c.seqs, c.next); err == nil {
			t.Errorf("%s: RestoreSet accepted corrupt input", c.name)
		}
	}
}
