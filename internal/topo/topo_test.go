package topo

import (
	"reflect"
	"testing"
	"time"
)

func TestUniformAssignsRoundRobin(t *testing.T) {
	tp, err := Uniform(2, 2, 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	if tp.N() != 24 || tp.NumRacks() != 8 {
		t.Fatalf("got n=%d racks=%d, want 24/8", tp.N(), tp.NumRacks())
	}
	// Server i lives in rack i mod 8; servers 0 and 8 share a rack.
	if tp.ZoneOf(0) != tp.ZoneOf(8) || tp.ZoneOf(0) == tp.ZoneOf(1) {
		t.Fatalf("round-robin assignment broken: %q %q %q", tp.ZoneOf(0), tp.ZoneOf(8), tp.ZoneOf(1))
	}
	if got := tp.Dist(0, 8); got != DistSameRack {
		t.Fatalf("Dist(0,8)=%d, want same rack", got)
	}
	if got := tp.Dist(0, 0); got != DistSameRack {
		t.Fatalf("Dist(0,0)=%d, want same rack", got)
	}
}

func TestParseRoundTrip(t *testing.T) {
	tp, err := Parse("2x2x2", 16)
	if err != nil {
		t.Fatal(err)
	}
	tp2, err := Parse(tp.Spec(), 16)
	if err != nil {
		t.Fatalf("re-parse of Spec %q: %v", tp.Spec(), err)
	}
	for i := 0; i < 16; i++ {
		if tp.ZoneOf(i) != tp2.ZoneOf(i) {
			t.Fatalf("server %d zone %q != %q after round trip", i, tp.ZoneOf(i), tp2.ZoneOf(i))
		}
	}
}

func TestParseExplicit(t *testing.T) {
	tp, err := Parse("r0/d0/k0=0,2;r1/d0/k0=1,3", 4)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Dist(0, 2) != DistSameRack || tp.Dist(0, 1) != DistCrossRegion {
		t.Fatalf("distances wrong: %d %d", tp.Dist(0, 2), tp.Dist(0, 1))
	}
	if got := tp.ZoneMembers("r1"); !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("ZoneMembers(r1)=%v", got)
	}
	for _, bad := range []string{
		"r0/d0/k0=0,0;r1/d0/k0=1,2,3", // duplicate
		"r0/d0/k0=0,1,2",              // server 3 unassigned
		"r0/d0=0,1,2,3",               // not a rack path
		"r0/d0/k0=0,1,2,9",            // out of range
	} {
		if _, err := Parse(bad, 4); err == nil {
			t.Errorf("Parse(%q) accepted a bad spec", bad)
		}
	}
}

func TestDistanceLadder(t *testing.T) {
	tp, err := Parse("r0/d0/k0=0;r0/d0/k1=1;r0/d1/k0=2;r1/d0/k0=3", 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{DistSameRack, DistSameDC, DistSameRegion, DistCrossRegion}
	for b, w := range want {
		if got := tp.Dist(0, b); got != w {
			t.Errorf("Dist(0,%d)=%d, want %d", b, got, w)
		}
	}
	// Client-zone distances, including partial paths.
	if got := tp.DistZone("r0/d0/k0", 0); got != DistSameRack {
		t.Errorf("DistZone(rack,0)=%d", got)
	}
	if got := tp.DistZone("r0", 2); got != DistSameRegion {
		t.Errorf("DistZone(region,2)=%d", got)
	}
	if got := tp.DistZone("r0/d0", 3); got != DistCrossRegion {
		t.Errorf("DistZone(r0/d0,3)=%d", got)
	}
}

func TestZonesAndMembers(t *testing.T) {
	tp, err := Uniform(2, 2, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(tp.Zones(1)); got != 2 {
		t.Fatalf("Zones(1)=%d, want 2 regions", got)
	}
	if got := len(tp.Zones(2)); got != 4 {
		t.Fatalf("Zones(2)=%d, want 4 DCs", got)
	}
	// Every server is in exactly one DC.
	total := 0
	for _, z := range tp.Zones(2) {
		total += len(tp.ZoneMembers(z))
	}
	if total != 8 {
		t.Fatalf("DC membership covers %d servers, want 8", total)
	}
}

func TestSpreadAssignSpansZones(t *testing.T) {
	tp, err := Uniform(2, 2, 2, 24)
	if err != nil {
		t.Fatal(err)
	}
	for _, y := range []int{2, 3, 5} {
		for i := 0; i < 200; i++ {
			v := "entry" + string(rune('a'+i%26)) + string(rune('0'+i%10))
			homes := tp.SpreadAssign(v, y, 42)
			if len(homes) != y {
				t.Fatalf("SpreadAssign(%q, y=%d) returned %d homes", v, y, len(homes))
			}
			seen := map[int]bool{}
			for _, h := range homes {
				if seen[h] {
					t.Fatalf("SpreadAssign(%q) duplicated server %d", v, h)
				}
				seen[h] = true
			}
			// The guarantee the ext-zone availability rides on: with
			// >= 2 regions and y >= 2, no single zone at any depth holds
			// every copy.
			for depth := 1; depth <= 3; depth++ {
				if share := tp.MaxZoneShare(homes, depth); share >= len(homes) {
					t.Fatalf("SpreadAssign(%q, y=%d): all %d copies in one depth-%d zone", v, y, len(homes), depth)
				}
			}
		}
	}
}

func TestSpreadAssignDeterministic(t *testing.T) {
	tp, _ := Uniform(2, 2, 2, 16)
	a := tp.SpreadAssign("v17", 3, 7)
	b := tp.SpreadAssign("v17", 3, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("SpreadAssign not deterministic: %v vs %v", a, b)
	}
	c := tp.SpreadAssign("v17", 3, 8)
	if reflect.DeepEqual(a, c) {
		t.Log("different seeds gave the same assignment (possible, but suspicious for this case)")
	}
}

// TestResize pins Resize to the assignments a join and a drain have
// always produced: a joiner takes the least-populated rack, lowest rack
// index first, and a leaver's higher ids shift down by one.
func TestResize(t *testing.T) {
	var none *Topology
	if none.Resize(4, -1) != nil {
		t.Fatal("Resize of a nil topology is not nil")
	}
	small, err := Uniform(2, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := Parse("2x2x2", 8)
	if err != nil {
		t.Fatal(err)
	}
	if small.Resize(4, 2) != small {
		t.Fatal("Resize to the size a topology covers already is not the identity")
	}
	for _, c := range []struct {
		name       string
		tp         *Topology
		n, leaving int
		want       string
	}{
		{"join two", small, 6, -1, "r0/d0/k0=0,2,4;r1/d0/k0=1,3,5"},
		{"join then drain 0", small.Resize(6, -1), 5, 0, "r0/d0/k0=1,3;r1/d0/k0=0,2,4"},
		{"join one", tree, 9, -1, "r0/d0/k0=0,8;r0/d0/k1=1;r0/d1/k0=2;r0/d1/k1=3;r1/d0/k0=4;r1/d0/k1=5;r1/d1/k0=6;r1/d1/k1=7"},
		{"join three", tree, 11, -1, "r0/d0/k0=0,8;r0/d0/k1=1,9;r0/d1/k0=2,10;r0/d1/k1=3;r1/d0/k0=4;r1/d0/k1=5;r1/d1/k0=6;r1/d1/k1=7"},
		{"drain 2", tree, 7, 2, "r0/d0/k0=0;r0/d0/k1=1;r0/d1/k1=2;r1/d0/k0=3;r1/d0/k1=4;r1/d1/k0=5;r1/d1/k1=6"},
		{"join then drain 2", tree.Resize(9, -1), 8, 2, "r0/d0/k0=0,7;r0/d0/k1=1;r0/d1/k1=2;r1/d0/k0=3;r1/d0/k1=4;r1/d1/k0=5;r1/d1/k1=6"},
	} {
		before := c.tp.Spec()
		got := c.tp.Resize(c.n, c.leaving)
		if got.N() != c.n || got.Spec() != c.want {
			t.Errorf("%s: Resize(%d, %d) = %d servers %q, want %d %q", c.name, c.n, c.leaving, got.N(), got.Spec(), c.n, c.want)
		}
		if c.tp.Spec() != before {
			t.Errorf("%s: Resize modified its input: %q, was %q", c.name, c.tp.Spec(), before)
		}
	}
}

func TestProfile(t *testing.T) {
	tp, _ := Uniform(1, 1, 1, 2)
	if lp := tp.Link(DistCrossRegion); lp.Base != 0 {
		t.Fatalf("zero profile should inject nothing, got %v", lp)
	}
	tp.SetProfile(DefaultProfile())
	if lp := tp.Link(DistCrossRegion); lp.Base != 30*time.Millisecond {
		t.Fatalf("Link(cross-region)=%v", lp)
	}
	if lp := tp.Link(99); lp != (LinkProfile{}) {
		t.Fatalf("out-of-range tier should be zero, got %v", lp)
	}
}
