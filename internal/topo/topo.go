// Package topo models the latency-tiered failure-domain tree a real
// deployment runs in: servers live in racks, racks in data centers,
// data centers in regions. The INRIA replica-placement papers
// (PAPERS.md) show that placement in such a tree changes both lookup
// cost and availability; this package is the shared substrate the
// in-process network (zone-correlated latency, whole-zone
// partitions), the zone-spread placement mode, and the zone-aware
// selector consume.
//
// A Topology is an assignment of server ids to leaf zones (racks)
// plus a per-tier link latency profile. Zones are named by paths:
// "r0" is a region, "r0/d1" a data center, "r0/d1/k0" a rack; any
// prefix of a rack path names the enclosing zone, so one API serves
// partitions and membership queries at every level.
//
// Everything here is deterministic and RNG-free: zone assignment,
// distances, and the spread placement assignment are pure functions
// of the topology and (for SpreadAssign) a hash of the entry, so
// enabling a topology never perturbs a run's seeded random streams.
package topo

import (
	"fmt"
	"hash/fnv"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/stats"
)

// Distance tiers between two servers, used to index a Profile.
const (
	DistSameRack    = 0 // same rack (possibly same machine)
	DistSameDC      = 1 // same data center, different rack
	DistSameRegion  = 2 // same region, different data center
	DistCrossRegion = 3 // different regions
)

// NumDistances is the number of distance tiers.
const NumDistances = 4

// LinkProfile is the latency a call pays to traverse one distance
// tier: a fixed base plus uniform jitter in [0, Jitter).
type LinkProfile struct {
	Base   time.Duration
	Jitter time.Duration
}

// Profile maps each distance tier to its link latency. The zero value
// injects nothing (zones still partition and count hops, but cost no
// simulated time).
type Profile [NumDistances]LinkProfile

// DefaultProfile is a conventional datacenter latency ladder: free
// within a rack, 0.2ms across racks, 1ms across DCs, 30ms across
// regions. Experiments that only count cross-zone hops use the zero
// Profile instead, which adds no latency and draws no randomness.
func DefaultProfile() Profile {
	return Profile{
		DistSameRack:    {},
		DistSameDC:      {Base: 200 * time.Microsecond},
		DistSameRegion:  {Base: time.Millisecond},
		DistCrossRegion: {Base: 30 * time.Millisecond},
	}
}

// rack is one leaf zone.
type rack struct {
	region, dc, name string
}

func (r rack) path() string { return r.region + "/" + r.dc + "/" + r.name }

// Topology is a zone tree plus server assignment. It is a value: Resize
// returns a new topology for its holder to install, so one shared
// between goroutines is never written and needs no lock.
type Topology struct {
	racks   []rack
	assign  []int   // server id -> rack index
	members [][]int // rack index -> server ids, ascending
	// spreadOrder interleaves rack indices region-first, then DC, then
	// rack, so consecutive entries differ in the widest failure domain
	// available — the order SpreadAssign walks.
	spreadOrder []int
	profile     Profile
}

// Uniform builds a balanced tree of regions x dcsPerRegion x
// racksPerDC racks and assigns n servers round-robin across racks
// (server i lives in rack i mod numRacks). Round-robin numbering is
// deliberate: it makes consecutive server ids land in different
// failure domains, so schemes that place on consecutive ids (Round-y
// windows) are zone-diverse without any protocol change.
func Uniform(regions, dcsPerRegion, racksPerDC, n int) (*Topology, error) {
	if regions <= 0 || dcsPerRegion <= 0 || racksPerDC <= 0 {
		return nil, fmt.Errorf("topo: tree dimensions must be positive, got %dx%dx%d", regions, dcsPerRegion, racksPerDC)
	}
	if n <= 0 {
		return nil, fmt.Errorf("topo: need n > 0 servers, got %d", n)
	}
	t := &Topology{profile: Profile{}}
	for r := 0; r < regions; r++ {
		for d := 0; d < dcsPerRegion; d++ {
			for k := 0; k < racksPerDC; k++ {
				t.racks = append(t.racks, rack{
					region: "r" + strconv.Itoa(r),
					dc:     "d" + strconv.Itoa(d),
					name:   "k" + strconv.Itoa(k),
				})
			}
		}
	}
	if len(t.racks) > n {
		return nil, fmt.Errorf("topo: %d racks but only %d servers (every rack needs a member)", len(t.racks), n)
	}
	t.assign = make([]int, n)
	for i := range t.assign {
		t.assign[i] = i % len(t.racks)
	}
	t.rebuild()
	return t, nil
}

// Parse builds a topology from a compact spec for n servers. Two
// forms are accepted:
//
//   - "RxDxK" (e.g. "2x2x2"): a Uniform tree of R regions, D data
//     centers per region, K racks per DC, servers assigned
//     round-robin;
//   - an explicit assignment "r0/d0/k0=0,1,2;r0/d1/k0=3,4,5": every
//     server id in [0, n) must appear exactly once.
//
// A spec starting with "@" names a file holding the spec (either
// form, whitespace ignored), the shape plsd's -topology flag takes.
func Parse(spec string, n int) (*Topology, error) {
	if strings.HasPrefix(spec, "@") {
		data, err := os.ReadFile(spec[1:])
		if err != nil {
			return nil, fmt.Errorf("topo: read spec file: %w", err)
		}
		spec = strings.Join(strings.Fields(string(data)), "")
	}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("topo: empty spec")
	}
	if !strings.Contains(spec, "=") {
		dims := strings.Split(spec, "x")
		if len(dims) != 3 {
			return nil, fmt.Errorf("topo: spec %q is neither RxDxK nor an explicit assignment", spec)
		}
		var v [3]int
		for i, d := range dims {
			x, err := strconv.Atoi(d)
			if err != nil {
				return nil, fmt.Errorf("topo: bad dimension %q in spec %q", d, spec)
			}
			v[i] = x
		}
		return Uniform(v[0], v[1], v[2], n)
	}
	t := &Topology{assign: make([]int, n), profile: Profile{}}
	for i := range t.assign {
		t.assign[i] = -1
	}
	rackIdx := make(map[string]int)
	for _, clause := range strings.Split(spec, ";") {
		if clause == "" {
			continue
		}
		eq := strings.SplitN(clause, "=", 2)
		if len(eq) != 2 {
			return nil, fmt.Errorf("topo: clause %q wants rack=ids", clause)
		}
		parts := strings.Split(eq[0], "/")
		if len(parts) != 3 {
			return nil, fmt.Errorf("topo: zone %q must be region/dc/rack", eq[0])
		}
		for _, p := range parts {
			if p == "" {
				return nil, fmt.Errorf("topo: zone %q has an empty component", eq[0])
			}
		}
		ri, ok := rackIdx[eq[0]]
		if !ok {
			ri = len(t.racks)
			rackIdx[eq[0]] = ri
			t.racks = append(t.racks, rack{region: parts[0], dc: parts[1], name: parts[2]})
		}
		for _, idStr := range strings.Split(eq[1], ",") {
			if idStr == "" {
				continue
			}
			id, err := strconv.Atoi(idStr)
			if err != nil {
				return nil, fmt.Errorf("topo: bad server id %q in clause %q", idStr, clause)
			}
			if id < 0 || id >= n {
				return nil, fmt.Errorf("topo: server id %d outside [0,%d)", id, n)
			}
			if t.assign[id] != -1 {
				return nil, fmt.Errorf("topo: server %d assigned twice", id)
			}
			t.assign[id] = ri
		}
	}
	for id, ri := range t.assign {
		if ri == -1 {
			return nil, fmt.Errorf("topo: server %d has no zone assignment", id)
		}
	}
	t.rebuild()
	return t, nil
}

// rebuild recomputes the per-rack member lists and the spread walk
// order, on a topology nobody else holds yet.
func (t *Topology) rebuild() {
	t.members = make([][]int, len(t.racks))
	for id, ri := range t.assign {
		t.members[ri] = append(t.members[ri], id)
	}
	// Group racks by region, inside each region by DC, preserving rack
	// declaration order, then interleave bottom-up so the walk order
	// alternates regions first, DCs second, racks last.
	regionOrder := []string{}
	byRegion := map[string][]int{}
	for ri, rk := range t.racks {
		if _, ok := byRegion[rk.region]; !ok {
			regionOrder = append(regionOrder, rk.region)
		}
		byRegion[rk.region] = append(byRegion[rk.region], ri)
	}
	regionLists := make([][]int, 0, len(regionOrder))
	for _, reg := range regionOrder {
		dcOrder := []string{}
		byDC := map[string][]int{}
		for _, ri := range byRegion[reg] {
			dc := t.racks[ri].dc
			if _, ok := byDC[dc]; !ok {
				dcOrder = append(dcOrder, dc)
			}
			byDC[dc] = append(byDC[dc], ri)
		}
		dcLists := make([][]int, 0, len(dcOrder))
		for _, dc := range dcOrder {
			dcLists = append(dcLists, byDC[dc])
		}
		regionLists = append(regionLists, interleave(dcLists))
	}
	t.spreadOrder = interleave(regionLists)
}

// interleave merges groups by taking index 0 of each group, then
// index 1, and so on — the round-robin that maximizes domain
// diversity between consecutive output entries.
func interleave(groups [][]int) []int {
	var out []int
	for i := 0; ; i++ {
		took := false
		for _, g := range groups {
			if i < len(g) {
				out = append(out, g[i])
				took = true
			}
		}
		if !took {
			return out
		}
	}
}

// N returns the number of servers assigned.
func (t *Topology) N() int {
	return len(t.assign)
}

// NumRacks returns the number of leaf zones.
func (t *Topology) NumRacks() int {
	return len(t.racks)
}

// SetProfile installs the per-tier latency profile, before the
// topology is shared.
func (t *Topology) SetProfile(p Profile) {
	t.profile = p
}

// Link returns the latency profile for one distance tier.
func (t *Topology) Link(dist int) LinkProfile {
	if dist < 0 || dist >= NumDistances {
		return LinkProfile{}
	}
	return t.profile[dist]
}

// ZoneOf returns the rack path of a server, or "" if the id is
// outside the assignment (a joiner the topology has not grown to
// cover yet).
func (t *Topology) ZoneOf(server int) string {
	if server < 0 || server >= len(t.assign) {
		return ""
	}
	return t.racks[t.assign[server]].path()
}

// Dist returns the distance tier between two servers. Unassigned ids
// are treated as maximally distant.
func (t *Topology) Dist(a, b int) int {
	if a < 0 || a >= len(t.assign) || b < 0 || b >= len(t.assign) {
		return DistCrossRegion
	}
	return distRacks(t.racks[t.assign[a]], t.racks[t.assign[b]])
}

func distRacks(x, y rack) int {
	switch {
	case x == y:
		return DistSameRack
	case x.region == y.region && x.dc == y.dc:
		return DistSameDC
	case x.region == y.region:
		return DistSameRegion
	default:
		return DistCrossRegion
	}
}

// DistZone returns the distance tier from a zone path (a region, DC,
// or rack — the caller's location, e.g. a client's) to a server. A
// partial path is as close as it can be proven: a client "in r0" is
// DistSameRegion from every r0 server.
func (t *Topology) DistZone(path string, server int) int {
	if server < 0 || server >= len(t.assign) {
		return DistCrossRegion
	}
	parts := strings.Split(path, "/")
	rk := t.racks[t.assign[server]]
	if len(parts) == 0 || parts[0] != rk.region {
		return DistCrossRegion
	}
	if len(parts) == 1 {
		return DistSameRegion
	}
	if parts[1] != rk.dc {
		return DistSameRegion
	}
	if len(parts) == 2 {
		return DistSameDC
	}
	if parts[2] != rk.name {
		return DistSameDC
	}
	return DistSameRack
}

// InZone reports whether a server lies inside the zone named by path
// (a rack path or any prefix of one).
func (t *Topology) InZone(server int, path string) bool {
	if server < 0 || server >= len(t.assign) {
		return false
	}
	rk := t.racks[t.assign[server]]
	parts := strings.Split(path, "/")
	switch len(parts) {
	case 1:
		return parts[0] == rk.region
	case 2:
		return parts[0] == rk.region && parts[1] == rk.dc
	case 3:
		return parts[0] == rk.region && parts[1] == rk.dc && parts[2] == rk.name
	default:
		return false
	}
}

// ZoneMembers returns the servers inside a zone (region, DC, or rack
// path), ascending.
func (t *Topology) ZoneMembers(path string) []int {
	var out []int
	for id := range t.assign {
		if t.InZone(id, path) {
			out = append(out, id)
		}
	}
	return out
}

// Zones lists the distinct zone paths at one depth: 1 = regions,
// 2 = data centers, 3 = racks. Paths come out in first-seen
// (declaration) order.
func (t *Topology) Zones(depth int) []string {
	seen := map[string]bool{}
	var out []string
	for _, rk := range t.racks {
		var p string
		switch depth {
		case 1:
			p = rk.region
		case 2:
			p = rk.region + "/" + rk.dc
		default:
			p = rk.path()
		}
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	return out
}

// Resize returns the topology fitted to a cluster of n servers: without
// server leaving's assignment, higher ids shifted down by one (slot
// compaction after a drain), when leaving is one of its servers; then
// with new servers taking the next ids, each assigned to the
// least-populated rack, lowest rack index first, until it covers n. It
// is deterministic, so every member of a cluster that fits its own
// topology to a change computes the same one. A topology that covers n
// servers already is returned as is, and nil stays nil.
func (t *Topology) Resize(n, leaving int) *Topology {
	if t == nil || len(t.assign) == n {
		return t
	}
	g := *t
	g.assign = slices.Clone(t.assign)
	if leaving >= 0 && leaving < len(g.assign) {
		g.assign = slices.Delete(g.assign, leaving, leaving+1)
		g.rebuild()
	}
	for len(g.assign) < n {
		best := 0
		for ri := range g.racks {
			if len(g.members[ri]) < len(g.members[best]) {
				best = ri
			}
		}
		g.assign = append(g.assign, best)
		g.rebuild()
	}
	return &g
}

// SpreadAssign picks y distinct servers for entry v, walking racks in
// the interleaved spread order so consecutive copies land in the
// widest distinct failure domains available: with at least two
// top-level zones and y >= 2, no single zone (rack, DC, or region)
// holds every copy. The choice is a pure function of (v, y, seed,
// topology) — no RNG — so it can serve as the Hash-y/MultiProbe-y
// home assignment under the zone-spread placement mode and be
// recomputed identically by placement, repair, and the invariant
// checker.
func (t *Topology) SpreadAssign(v string, y int, seed uint64) []int {
	n := len(t.assign)
	if y <= 0 || n == 0 {
		return nil
	}
	if y > n {
		y = n
	}
	h := fnv.New64a()
	h.Write([]byte(v))
	base := h.Sum64() ^ seed
	z := len(t.spreadOrder)
	start := int(stats.Mix64(base+0x9e3779b97f4a7c15) % uint64(z))
	chosen := make([]int, 0, y)
	taken := make(map[int]bool, y)
	for c := 0; c < y; c++ {
		s := t.pick(base, start+c, c, taken)
		if s < 0 {
			break
		}
		taken[s] = true
		chosen = append(chosen, s)
	}
	return chosen
}

// pick finds the first untaken server starting at spread-order
// rack position rackAt, probing within each rack from a hash-derived
// offset before falling to the next rack.
func (t *Topology) pick(base uint64, rackAt, c int, taken map[int]bool) int {
	z := len(t.spreadOrder)
	for off := 0; off < z; off++ {
		mem := t.members[t.spreadOrder[(rackAt+off)%z]]
		if len(mem) == 0 {
			continue
		}
		pick := int(stats.Mix64(base+uint64(c+2)*0x9e3779b97f4a7c15) % uint64(len(mem)))
		for j := 0; j < len(mem); j++ {
			if s := mem[(pick+j)%len(mem)]; !taken[s] {
				return s
			}
		}
	}
	return -1
}

// MaxZoneShare returns, for a list of servers (e.g. one entry's
// homes), the largest number that share a single zone at the given
// depth (1 = region, 2 = DC, 3 = rack) — the copies a single
// zone partition can take out at once.
func (t *Topology) MaxZoneShare(servers []int, depth int) int {
	counts := map[string]int{}
	best := 0
	for _, s := range servers {
		if s < 0 || s >= len(t.assign) {
			continue
		}
		rk := t.racks[t.assign[s]]
		var p string
		switch depth {
		case 1:
			p = rk.region
		case 2:
			p = rk.region + "/" + rk.dc
		default:
			p = rk.path()
		}
		counts[p]++
		if counts[p] > best {
			best = counts[p]
		}
	}
	return best
}

// String summarizes the tree, e.g. "2 regions / 4 DCs / 8 racks, 24
// servers".
func (t *Topology) String() string {
	regions := map[string]bool{}
	dcs := map[string]bool{}
	for _, rk := range t.racks {
		regions[rk.region] = true
		dcs[rk.region+"/"+rk.dc] = true
	}
	return fmt.Sprintf("%d regions / %d DCs / %d racks, %d servers",
		len(regions), len(dcs), len(t.racks), len(t.assign))
}

// Spec serializes the topology as an explicit-assignment Parse spec,
// with racks in declaration order — the cluster-wide config every
// member must agree on (see DESIGN.md §6, "Zone-spread placement").
func (t *Topology) Spec() string {
	clauses := make([]string, 0, len(t.racks))
	for ri, rk := range t.racks {
		if len(t.members[ri]) == 0 {
			continue
		}
		ids := make([]string, len(t.members[ri]))
		for i, id := range t.members[ri] {
			ids[i] = strconv.Itoa(id)
		}
		clauses = append(clauses, rk.path()+"="+strings.Join(ids, ","))
	}
	sort.Strings(clauses)
	return strings.Join(clauses, ";")
}

// Within reports whether zone path z lies inside (or equals) the zone
// named by ancestor. It is a pure path comparison — no topology needed
// — so callers can relate a client's zone path to a partitioned zone.
func Within(z, ancestor string) bool {
	return z == ancestor || strings.HasPrefix(z, ancestor+"/")
}
