package node

import (
	"testing"

	"repro/internal/topo"
	"repro/internal/wire"
)

// A node's post-change view comes from its pre-change one and the
// update alone: its rank is its own address's index among the update's
// members — unchanged by a join, shifted down past a drained slot, none
// on the leaver — and its topology is fitted to the change.
func TestNextViewRanksByAddress(t *testing.T) {
	five := []string{"a:1", "b:1", "c:1", "d:1", "e:1"}
	tp, err := topo.Uniform(1, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for self := 0; self < 4; self++ {
		join := (&view{View: View{Addrs: five[:4], Self: self, Topology: tp}}).next(
			wire.MembershipUpdate{Epoch: 1, Leaving: -1, Addrs: five})
		if join.Self != self || join.Epoch != 1 || join.Topology.N() != 5 {
			t.Errorf("join: rank %d becomes %+v, want rank %d of 5 at epoch 1", self, join.View, self)
		}
	}
	drained := []string{"a:1", "b:1", "d:1", "e:1"}
	for self, want := range []int{0, 1, -1, 2, 3} {
		leave := (&view{View: View{Addrs: five, Self: self}}).next(
			wire.MembershipUpdate{Epoch: 2, Leaving: 2, Addrs: drained})
		if leave.Self != want {
			t.Errorf("drain of slot 2: rank %d becomes %d, want %d", self, leave.Self, want)
		}
	}
	if got := (&view{View: View{Addrs: make([]string, 3), Self: 1}}).rankIn(five); got != -1 {
		t.Errorf("a static node, which has no address, ranks %d among %v, want -1", got, five)
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
