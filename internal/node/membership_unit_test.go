package node

import (
	"testing"

	"repro/internal/wire"
)

// The rank/slot mapping is the heart of drain correctness: plans are
// computed in post-change rank space while the leaver still occupies a
// transport slot. Every rank must round-trip through its slot, and the
// leaver must map to no rank at all.
func TestMemberChangeRankMapping(t *testing.T) {
	join := memberChange{newN: 6, leaving: -1}
	for r := 0; r < 6; r++ {
		if join.slotOf(r) != r || join.rankOf(r) != r {
			t.Errorf("join: rank %d maps slot %d rank %d, want identity", r, join.slotOf(r), join.rankOf(r))
		}
	}

	leave := memberChange{newN: 4, leaving: 2}
	wantSlots := []int{0, 1, 3, 4}
	for r, want := range wantSlots {
		if got := leave.slotOf(r); got != want {
			t.Errorf("leave: slotOf(%d) = %d, want %d", r, got, want)
		}
		if got := leave.rankOf(want); got != r {
			t.Errorf("leave: rankOf(%d) = %d, want %d", want, got, r)
		}
	}
	if got := leave.rankOf(2); got != -1 {
		t.Errorf("leave: leaver rank = %d, want -1", got)
	}
}

func TestValidateMembershipUpdate(t *testing.T) {
	ok := []wire.MembershipUpdate{
		{OldN: 5, NewN: 6, Joined: []int{5}, Leaving: -1},
		{OldN: 5, NewN: 7, Joined: []int{5, 6}, Leaving: -1},
		{OldN: 5, NewN: 4, Leaving: 2},
		{OldN: 2, NewN: 1, Leaving: 1},
	}
	for _, m := range ok {
		if err := validateMembershipUpdate(m); err != nil {
			t.Errorf("valid update %+v rejected: %v", m, err)
		}
	}
	bad := []wire.MembershipUpdate{
		{OldN: 0, NewN: 1, Joined: []int{0}, Leaving: -1}, // empty old cluster
		{OldN: 1, NewN: 0, Leaving: 0},                    // drains to nothing
		{OldN: 5, NewN: 6, Leaving: -1},                   // join without joiners
		{OldN: 5, NewN: 7, Joined: []int{5}, Leaving: -1}, // size/joiner mismatch
		{OldN: 5, NewN: 6, Joined: []int{4}, Leaving: -1}, // non-contiguous slot
		{OldN: 5, NewN: 4, Leaving: 5},                    // leaver out of range
		{OldN: 5, NewN: 3, Leaving: 2},                    // wrong new size
		{OldN: 5, NewN: 4, Joined: []int{5}, Leaving: 2},  // join and leave at once
	}
	for _, m := range bad {
		if err := validateMembershipUpdate(m); err == nil {
			t.Errorf("malformed update %+v accepted", m)
		}
	}
}
