package node

import (
	"testing"

	"repro/internal/wire"
)

// The rank/slot mapping is the heart of drain correctness: plans are
// computed in post-change rank space while the leaver still occupies a
// transport slot. Every rank must round-trip through its slot, and the
// leaver must map to no rank at all.
func TestTransitionRankMapping(t *testing.T) {
	join := &transition{update: wire.MembershipUpdate{Leaving: -1}}
	for r := 0; r < 6; r++ {
		if join.slotOf(r) != r || rankAfter(r, -1) != r {
			t.Errorf("join: rank %d maps slot %d rank %d, want identity", r, join.slotOf(r), rankAfter(r, -1))
		}
	}

	leave := &transition{update: wire.MembershipUpdate{Leaving: 2}}
	wantSlots := []int{0, 1, 3, 4}
	for r, want := range wantSlots {
		if got := leave.slotOf(r); got != want {
			t.Errorf("leave: slotOf(%d) = %d, want %d", r, got, want)
		}
		if got := rankAfter(want, 2); got != r {
			t.Errorf("leave: rankAfter(%d, 2) = %d, want %d", want, got, r)
		}
	}
	if got := rankAfter(2, 2); got != -1 {
		t.Errorf("leave: leaver rank = %d, want -1", got)
	}
}

func TestValidateMembershipUpdate(t *testing.T) {
	six := []string{"a:1", "b:1", "c:1", "d:1", "e:1", "f:1"}
	ok := []wire.MembershipUpdate{
		{Leaving: -1, Addrs: six},     // a join: the joiner is the last address
		{Leaving: 2, Addrs: six[:4]},  // a drain of slot 2 of 5
		{Leaving: 4, Addrs: six[:4]},  // a drain of the last slot
		{Leaving: 1, Addrs: six[:1]},  // two members drain to one
		{Leaving: -1, Addrs: six[:2]}, // a join to a single member
	}
	for _, m := range ok {
		if err := validateMembershipUpdate(m); err != nil {
			t.Errorf("valid update %+v rejected: %v", m, err)
		}
	}
	bad := []wire.MembershipUpdate{
		{Leaving: -1},                                    // no members
		{Leaving: 0, Addrs: []string{}},                  // drains to nothing
		{Leaving: -1, Addrs: []string{"a:1", "", "c:1"}}, // an empty address
		{Leaving: -2, Addrs: six},                        // a leaver below -1
		{Leaving: 5, Addrs: six[:4]},                     // a leaver past the pre-change slots
	}
	for _, m := range bad {
		if err := validateMembershipUpdate(m); err == nil {
			t.Errorf("malformed update %+v accepted", m)
		}
	}
}
