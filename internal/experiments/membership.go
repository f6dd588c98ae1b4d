package experiments

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/stats"
)

// ExtMembership is the churn arm of the dynamic-membership story. For
// every placement scheme a seeded cluster absorbs join/drain rounds —
// each round a fresh server joins and an original member drains — and
// the table records how many entries each kind of transition moved and
// the achieved-t ratio of lookups issued immediately after every
// membership change (1.0 means no lookup ever saw a hole). Three more
// rows compare placement load skew (max/mean homes per server) across
// Hash-y, a vanilla single-probe consistent-hash ring, and multi-probe
// — the balance/movement trade-off that motivates the multi-probe
// scheme: Hash-y balances near-perfectly by rehashing everything mod n
// and pays for it in entries moved; the ring moves as little as
// multi-probe but its arc lengths vary wildly.
func ExtMembership(_ Fidelity, seed uint64) (*Table, error) {
	const (
		servers = 6
		keys    = 10
		perKey  = 30
		target  = 8
		rounds  = 6

		skewServers = 12
		skewKeys    = 4000
		skewY       = 2
		skewSeed    = 0x5eed
	)
	key := func(k int) string { return fmt.Sprintf("mk-%d", k) }
	entries := numberedEntries(perKey)

	t := &Table{
		ID: "ext-membership",
		Title: fmt.Sprintf("Join/drain churn per scheme (%d servers, %d keys x %d entries, t=%d, %d join+drain rounds) and placement load skew (%d keys, y=%d, %d servers)",
			servers, keys, perKey, target, rounds, skewKeys, skewY, skewServers),
		XLabel:  "Scheme",
		Columns: []string{"Moved on join", "Moved on drain", "Churn lookups", "Availability", "Home skew max/mean"},
		Notes: []string{
			"moved = entries accepted by receivers during the transition's rebalance; availability = mean achieved/t of lookups issued right after each change",
			"home rows: per-server home counts over the key population under each assignment function; SingleProbeRing is the reference baseline, not a shipped scheme",
		},
	}
	// One config per distinct rebalance plan shape: broadcast copies,
	// fill-to-x subsets, deterministic homes, the single-home partition.
	for _, cfg := range []core.Config{
		{Scheme: core.FullReplication},
		{Scheme: core.Fixed, X: 12},
		{Scheme: core.RandomServer, X: 12},
		{Scheme: core.RoundRobin, Y: 3},
		{Scheme: core.Hash, Y: 3, Seed: 2},
		{Scheme: core.MultiProbe, Y: 3, Seed: 2},
		{Scheme: core.KeyPartition},
	} {
		// -seed 1 is the scenario the docs quote (RNG seed 77).
		rng := stats.NewRNG(seed + 76)
		cl := newCluster(servers, rng.Split())
		svc, err := core.NewService(cl.Caller(),
			core.WithSeed(rng.Uint64()),
			core.WithDefaultConfig(cfg))
		if err != nil {
			return nil, closing(cl, err)
		}
		for k := 0; k < keys; k++ {
			if err := svc.Place(ctxB(), key(k), entries); err != nil {
				return nil, closing(cl, fmt.Errorf("ext-membership: %s: place %s: %w", cfg, key(k), err))
			}
		}
		// settle returns what the rebalance sweeps of the transition
		// just committed moved (earlier epochs are excluded, so each
		// Join/Drain is charged only its own moves), then looks up every
		// key once.
		achieved, lookups := 0, 0
		settle := func() (moved int, err error) {
			epoch := cl.MemberEpoch()
			for i := 0; i < cl.N(); i++ {
				if st, ok := cl.Node(i).LastRebalance(); ok && st.Epoch == epoch {
					moved += st.Moved
				}
			}
			for k := 0; k < keys; k++ {
				got, err := achievedOf(svc, key(k), target)
				if err != nil {
					return 0, err
				}
				achieved += got
				lookups++
			}
			return moved, nil
		}
		movedOnJoin, movedOnDrain := 0, 0
		for r := 0; r < rounds; r++ {
			if _, err := cl.Join(ctxB(), stats.NewRNG(uint64(9000+r))); err != nil {
				return nil, closing(cl, fmt.Errorf("ext-membership: %s: join round %d: %w", cfg, r, err))
			}
			moved, err := settle()
			if err != nil {
				return nil, closing(cl, fmt.Errorf("ext-membership: %s: after join round %d: %w", cfg, r, err))
			}
			movedOnJoin += moved
			// Drain a rotating original member so slot renumbering — not
			// just trimming the freshly appended joiner — is exercised.
			if _, err := cl.Drain(ctxB(), 1+r%(servers-1)); err != nil {
				return nil, closing(cl, fmt.Errorf("ext-membership: %s: drain round %d: %w", cfg, r, err))
			}
			if moved, err = settle(); err != nil {
				return nil, closing(cl, fmt.Errorf("ext-membership: %s: after drain round %d: %w", cfg, r, err))
			}
			movedOnDrain += moved
		}
		if err := cl.Close(); err != nil {
			return nil, err
		}
		t.AddRow(cfg.String(), float64(movedOnJoin), float64(movedOnDrain), float64(lookups),
			float64(achieved)/float64(lookups*target), math.NaN())
	}

	for _, arm := range []struct {
		label  string
		assign func(v string, y, n int, seed uint64) []int
	}{
		{"Hash-2 homes", node.HashAssign},
		{"SingleProbeRing-2 homes", singleProbeAssign},
		{"MultiProbe-2 homes", node.MultiProbeAssign},
	} {
		load := make([]int, skewServers)
		for k := 0; k < skewKeys; k++ {
			for _, s := range arm.assign(fmt.Sprintf("skew-key-%d", k), skewY, skewServers, skewSeed) {
				load[s]++
			}
		}
		sort.Ints(load)
		mean := float64(skewKeys*skewY) / skewServers
		t.AddRow(arm.label, math.NaN(), math.NaN(), math.NaN(), math.NaN(), float64(load[skewServers-1])/mean)
	}
	return t, nil
}

// singleProbeAssign is the vanilla consistent-hashing baseline: one
// ring point per server, the key hashed once, replicas on the y
// distinct clockwise successors. Same movement economy as multi-probe
// (points are independent of n) but arc lengths — and so loads — vary
// with the luck of the point draw.
func singleProbeAssign(v string, y, n int, seed uint64) []int {
	if n <= 0 || y <= 0 {
		return nil
	}
	if y > n {
		y = n
	}
	mix := func(x uint64) uint64 {
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		return x ^ x>>33
	}
	h := fnv.New64a()
	h.Write([]byte(v))
	p := mix(h.Sum64() + seed)

	type point struct {
		at    uint64
		owner int
	}
	ring := make([]point, n)
	for i := range ring {
		ring[i] = point{mix(seed + uint64(i+1)*0xa24baed4963ee407), i}
	}
	sort.Slice(ring, func(a, b int) bool { return ring[a].at < ring[b].at })
	start := sort.Search(n, func(i int) bool { return ring[i].at >= p }) % n
	out := make([]int, 0, y)
	for i := 0; i < n && len(out) < y; i++ {
		out = append(out, ring[(start+i)%n].owner)
	}
	return out
}
