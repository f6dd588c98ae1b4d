package experiments

import (
	"fmt"

	"repro/internal/entry"
	"repro/internal/node"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/topo"
	"repro/internal/wire"
)

const (
	zoneTopo    = "3x2x2" // 3 regions x 2 DCs x 2 racks = 12 racks
	zoneServers = 24
	zoneKeys    = 48
	zonePerKey  = 12
	zoneY       = 3
	zoneTarget  = 8
	zoneLookups = 384
	zoneClient  = "r0/d0/k0"
)

// ExtZone places the same seeded Hash-y workload on the same
// rack/DC/region topology twice — plain hash assignment, then
// zone-spread placement — and measures each arm three ways:
//
//   - availability: over every single zone z (every rack, DC, and
//     region) and every placed entry, does the entry keep at least one
//     home outside z? Spread must score 1.0 — SpreadAssign guarantees
//     no single zone holds all of an entry's copies — while plain
//     demonstrably loses entries (all y hash homes landing in one zone).
//   - partition survival: actually partition the worst zone the scan
//     found that does not enclose the client and drive real lookups;
//     report the satisfied fraction and mean achieved answer size.
//   - locality: the share of a seeded lookup workload's calls in the
//     healthy cluster that leave the client's DC. Spreading lowers it
//     here: with y equal to the number of regions every entry keeps a
//     copy in the client's region, which a nearest-first client reaches
//     before it crosses a region boundary.
//
// The client's selector orders probes by zone distance only (no latency
// is injected and none is observed), so every column reproduces from
// the seed.
func ExtZone(_ Fidelity, seed uint64) (*Table, error) {
	t := &Table{
		ID: "ext-zone",
		Title: fmt.Sprintf("Zone-spread placement on vs. off (Hash-%d, %d servers on a %s region/DC/rack tree, %d keys x %d entries, t=%d, client in %s)",
			zoneY, zoneServers, zoneTopo, zoneKeys, zonePerKey, zoneTarget, zoneClient),
		XLabel: "Placement",
		Columns: []string{
			"Availability", "Entries at risk", "Keys fully lost", "Worst-zone availability",
			"Satisfied", "Contacted/lookup", "Cross-DC hop frac",
			"Partition satisfied", "Partition achieved",
		},
		Notes: []string{
			"availability scans every rack, DC and region: an (entry, zone) pair is at risk when every home of the entry lies inside the zone",
		},
	}
	for _, spread := range []bool{false, true} {
		label := "plain"
		if spread {
			label = "spread"
		}
		values, zones, err := zoneArm(wire.Config{Scheme: wire.Hash, Y: zoneY, Seed: 42, ZoneSpread: spread}, seed)
		if err != nil {
			return nil, fmt.Errorf("ext-zone: %s: %w", label, err)
		}
		t.AddRow(label, values...)
		t.Notes = append(t.Notes, label+": "+zones)
	}
	return t, nil
}

// zoneArm places the population under cfg and measures one row of
// ext-zone, returning it with a note naming the worst zone of the scan
// and the zone it partitioned.
func zoneArm(cfg wire.Config, seed uint64) (row []float64, zones string, err error) {
	rng := stats.NewRNG(seed)
	cl := newCluster(zoneServers, rng.Split())
	defer func() { err = closing(cl, err) }()
	tp, err := topo.Parse(zoneTopo, zoneServers)
	if err != nil {
		return nil, "", err
	}
	if err := cl.SetTopology(tp); err != nil {
		return nil, "", err
	}
	cl.Chaos().SetClientZone(zoneClient)
	drv, err := strategy.New(cfg, rng.Split())
	if err != nil {
		return nil, "", err
	}
	sel := selector.New(zoneServers, selector.Options{})
	sel.SetTopology(tp, zoneClient)
	drv.SetSelector(sel)

	key := func(k int) string { return fmt.Sprintf("zb-k%03d", k) }
	value := func(k, i int) string { return fmt.Sprintf("zb-k%03d-v%02d", k, i) }
	for k := 0; k < zoneKeys; k++ {
		entries := make([]entry.Entry, zonePerKey)
		for i := range entries {
			entries[i] = value(k, i)
		}
		if err := drv.Place(ctxB(), cl.Caller(), key(k), entries); err != nil {
			return nil, "", fmt.Errorf("place %s: %w", key(k), err)
		}
	}

	// Availability scan: every zone at every depth, every entry.
	var spreadTP *topo.Topology
	if cfg.ZoneSpread {
		spreadTP = tp
	}
	pairs, atRisk, keysLost := 0, 0, 0
	worstAvail, partAvail := 1.1, 1.1
	var worstZone, partZone string
	for depth := 1; depth <= 3; depth++ {
		for _, z := range tp.Zones(depth) {
			lostHere := 0
			for k := 0; k < zoneKeys; k++ {
				lostOfKey := 0
				for i := 0; i < zonePerKey; i++ {
					survives := false
					for _, home := range node.HomesFor(value(k, i), cfg, zoneServers, spreadTP) {
						if !tp.InZone(home, z) {
							survives = true
							break
						}
					}
					if !survives {
						lostOfKey++
					}
				}
				lostHere += lostOfKey
				if lostOfKey == zonePerKey {
					keysLost++
				}
			}
			pairs += zoneKeys * zonePerKey
			atRisk += lostHere
			avail := 1 - float64(lostHere)/float64(zoneKeys*zonePerKey)
			if avail < worstAvail {
				worstAvail, worstZone = avail, z
			}
			if avail < partAvail && !topo.Within(zoneClient, z) {
				partAvail, partZone = avail, z
			}
		}
	}

	// Healthy-cluster lookup workload: hop distribution + satisfaction.
	cl.Chaos().ResetZoneCalls()
	satisfied, contacted := 0, 0
	for i := 0; i < zoneLookups; i++ {
		res, err := drv.PartialLookup(ctxB(), cl.Caller(), key(i%zoneKeys), zoneTarget)
		if err != nil {
			return nil, "", fmt.Errorf("lookup %s: %w", key(i%zoneKeys), err)
		}
		if res.Satisfied(zoneTarget) {
			satisfied++
		}
		contacted += res.Contacted
	}
	var hops, crossDC uint64
	for d, c := range cl.Chaos().ZoneCalls() {
		hops += c
		if d >= topo.DistSameRegion {
			crossDC += c
		}
	}

	// The survival question is asked from outside the lost zone: cut
	// it off and rerun the lookups for real.
	cl.Chaos().PartitionZone(partZone)
	partSatisfied, achieved := 0, 0
	for k := 0; k < zoneKeys; k++ {
		res, err := drv.PartialLookup(ctxB(), cl.Caller(), key(k), zoneTarget)
		if err != nil {
			continue // counts as an empty answer
		}
		if res.Satisfied(zoneTarget) {
			partSatisfied++
		}
		achieved += len(res.Entries)
	}
	return []float64{
		1 - float64(atRisk)/float64(pairs), float64(atRisk), float64(keysLost), worstAvail,
		float64(satisfied) / zoneLookups, float64(contacted) / zoneLookups, float64(crossDC) / float64(hops),
		float64(partSatisfied) / zoneKeys, float64(achieved) / zoneKeys,
	}, fmt.Sprintf("worst zone %s; partition columns measured with %s cut off", worstZone, partZone), nil
}
