package experiments

import "testing"

func TestExtRSReplacementConfirmsPaperClaim(t *testing.T) {
	tbl, err := ExtRSReplacement(Fidelity{Runs: 8, Lookups: 300, Updates: 2000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	cushion, replace := tbl.Rows[0], tbl.Rows[1]
	// Sec. 5.3: "the replacement alternative results in higher
	// unfairness than the cushion scheme when there are deletes".
	if replace.Values[0] < cushion.Values[0] {
		t.Errorf("replacement unfairness %v below cushion %v", replace.Values[0], cushion.Values[0])
	}
	// "finding a replacement is a costly operation": more messages.
	if replace.Values[2] <= cushion.Values[2] {
		t.Errorf("replacement msgs/update %v not above cushion %v", replace.Values[2], cushion.Values[2])
	}
	// Replacement keeps storage at (or above) the cushion variant.
	if replace.Values[1] < cushion.Values[1] {
		t.Errorf("replacement storage %v below cushion %v", replace.Values[1], cushion.Values[1])
	}
}

func TestExtOverlayTradeoffShape(t *testing.T) {
	tbl, err := ExtOverlayTradeoff(Fidelity{Runs: 20, Lookups: 100, Updates: 500}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want d=1..5", len(tbl.Rows))
	}
	prevServers, prevHops := 1e9, -1.0
	for _, row := range tbl.Rows {
		servers, hops := row.Values[0], row.Values[1]
		// Larger d: fewer (or equal) servers, larger (or equal) mean
		// client-server distance — the Sec. 7.2 tradeoff.
		if servers > prevServers {
			t.Errorf("d=%s: servers increased (%v after %v)", row.Label, servers, prevServers)
		}
		if hops < prevHops-0.2 {
			t.Errorf("d=%s: mean hops decreased (%v after %v)", row.Label, hops, prevHops)
		}
		prevServers, prevHops = servers, hops
		// Every client that can reach a server must satisfy t once d
		// is large enough for full coverage per reachable set.
		if row.Label >= "3" && row.Values[3] < 99 {
			t.Errorf("d=%s: satisfied %v%%, want ~100%%", row.Label, row.Values[3])
		}
	}
	// Update overhead shrinks with d (fewer servers to broadcast to).
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if last.Values[2] >= first.Values[2] {
		t.Errorf("update msgs did not shrink: %v -> %v", first.Values[2], last.Values[2])
	}
}

func TestExtensionRegistry(t *testing.T) {
	exts := ExtensionExperiments()
	if len(exts) != 11 {
		t.Fatalf("extensions = %d", len(exts))
	}
	for _, e := range exts {
		if _, err := Find(e.ID); err != nil {
			t.Errorf("Find(%s): %v", e.ID, err)
		}
	}
}

func TestExtRandomFailuresDegrades(t *testing.T) {
	tbl, err := ExtRandomFailures(Fidelity{Runs: 10, Lookups: 200, Updates: 500}, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	for col := 0; col < 3; col++ {
		if first.Values[col] < 99 {
			t.Errorf("col %d: no-failure satisfaction %v%%, want ~100%%", col, first.Values[col])
		}
		if last.Values[col] > first.Values[col] {
			t.Errorf("col %d: satisfaction rose under failures", col)
		}
	}
	// With 8 of 10 servers down, nobody satisfies t=35 every time.
	for col := 0; col < 3; col++ {
		if last.Values[col] >= 100 {
			t.Errorf("col %d: still 100%% satisfied with 8 failures", col)
		}
	}
}

func TestExtOptimalYPolicyTradeoff(t *testing.T) {
	tbl, err := ExtOptimalYPolicy(Fidelity{Runs: 8, Lookups: 200, Updates: 1000}, 1)
	if err != nil {
		t.Fatal(err)
	}
	byH := map[string][]float64{}
	for _, row := range tbl.Rows {
		byH[row.Label] = row.Values
	}
	// At h=400 the adaptive policy (y=1) sends fewer messages than
	// both pinned variants.
	if byH["400"][0] >= byH["400"][1] || byH["400"][0] >= byH["400"][2] {
		t.Errorf("h=400: adaptive msgs %v not below pinned (%v, %v)", byH["400"][0], byH["400"][1], byH["400"][2])
	}
	// At h=100 the adaptive policy (y=4) buys a cheaper lookup than
	// pinned y=2.
	if byH["100"][3] >= byH["100"][4] {
		t.Errorf("h=100: adaptive cost %v not below y=2 cost %v", byH["100"][3], byH["100"][4])
	}
}

func TestExtHotSpotConfirmsConclusion(t *testing.T) {
	tbl, err := ExtHotSpot(Fidelity{Runs: 8, Lookups: 2000, Updates: 500}, 1)
	if err != nil {
		t.Fatal(err)
	}
	shares := map[string]float64{}
	for _, row := range tbl.Rows {
		shares[row.Label] = row.Values[0]
	}
	// The key-hashed baseline concentrates far more load on its
	// hottest server than any partial-lookup scheme.
	for _, scheme := range []string{"FullReplication", "Round-2", "Hash-2"} {
		if shares[scheme] >= shares["KeyPartition"]*0.8 {
			t.Errorf("%s hottest-server share %v not clearly below KeyPartition %v",
				scheme, shares[scheme], shares["KeyPartition"])
		}
	}
	// Partial schemes stay near the ideal 1/n share.
	for _, scheme := range []string{"FullReplication", "Round-2"} {
		if shares[scheme] > 20 {
			t.Errorf("%s hottest-server share %v%%, want near 10%%", scheme, shares[scheme])
		}
	}
}

// rowsByLabel indexes a table's rows for the on/off scenario tests.
func rowsByLabel(tbl *Table) map[string][]float64 {
	rows := map[string][]float64{}
	for _, row := range tbl.Rows {
		rows[row.Label] = row.Values
	}
	return rows
}

func TestExtSelectLowersLookupCost(t *testing.T) {
	tbl, err := ExtSelect(Fidelity{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: Lookups, Satisfied, Contacted/lookup, Mean us, P99 us,
	// Cache hits, Cache misses, Demotions. The us columns are virtual
	// time, so they reproduce from the seed.
	rows := rowsByLabel(tbl)
	off, on := rows["off"], rows["on"]
	if on[1] != off[1] || on[1] != on[0] {
		t.Errorf("satisfied on %v / off %v of %v lookups, want all in both arms", on[1], off[1], on[0])
	}
	if on[2] >= off[2] {
		t.Errorf("contacted per lookup %v with the selector, %v without: no saving", on[2], off[2])
	}
	if on[3] >= off[3] {
		t.Errorf("mean lookup latency %vus with the selector, %vus without: no saving", on[3], off[3])
	}
	if on[7] < 1 {
		t.Errorf("demotions = %v: the drop-prone servers were never demoted", on[7])
	}
}

func TestExtRepairHoldsAchievedT(t *testing.T) {
	tbl, err := ExtRepair(Fidelity{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: Lookups, Satisfied, Achieved/t, Last round achieved/t,
	// Sweeps, Entries moved.
	rows := rowsByLabel(tbl)
	for scheme, moved := range map[string]float64{"RandomServer-16": 1536, "Hash-3": 1056} {
		on, off := rows[scheme+" on"], rows[scheme+" off"]
		if on[2] < 0.99 {
			t.Errorf("%s: achieved/t %v with repair on, want >= 0.99", scheme, on[2])
		}
		if off[2] >= on[2] || off[3] >= on[3] {
			t.Errorf("%s: repair off (%v, last round %v) not below on (%v, %v)", scheme, off[2], off[3], on[2], on[3])
		}
		if on[5] != moved || off[5] != 0 {
			t.Errorf("%s: entries moved on %v / off %v, want %v / 0", scheme, on[5], off[5], moved)
		}
	}
}

func TestExtMembershipAvailabilityAndSkew(t *testing.T) {
	tbl, err := ExtMembership(Fidelity{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: Moved on join, Moved on drain, Churn lookups,
	// Availability, Home skew max/mean.
	if len(tbl.Rows) != 10 {
		t.Fatalf("rows = %d, want 7 schemes + 3 home-skew rows", len(tbl.Rows))
	}
	for _, row := range tbl.Rows[:7] {
		if row.Values[3] != 1 {
			t.Errorf("%s: availability %v during churn, want 1", row.Label, row.Values[3])
		}
	}
	rows := rowsByLabel(tbl)
	// Consistent hashing's point: a join moves a fraction of what
	// rehashing mod n moves.
	if mp, hash := rows["MultiProbe-3"][0], rows["Hash-3"][0]; mp >= hash {
		t.Errorf("moved on join: MultiProbe %v not below Hash %v", mp, hash)
	}
	// Multi-probe's extra probes buy balance the one-point ring lacks;
	// Hash-y stays the best balanced.
	hash, ring, mp := rows["Hash-2 homes"][4], rows["SingleProbeRing-2 homes"][4], rows["MultiProbe-2 homes"][4]
	if !(hash < mp && mp < ring) || mp > 1.15 {
		t.Errorf("home skew Hash %v, MultiProbe %v, single-probe ring %v: want Hash < MultiProbe < ring and MultiProbe <= 1.15", hash, mp, ring)
	}
}

func TestExtZoneSpreadSurvivesAnyZone(t *testing.T) {
	tbl, err := ExtZone(Fidelity{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Columns: Availability, Entries at risk, Keys fully lost,
	// Worst-zone availability, Satisfied, Contacted/lookup, Cross-DC hop
	// frac, Partition satisfied, Partition achieved.
	rows := rowsByLabel(tbl)
	plain, spread := rows["plain"], rows["spread"]
	if spread[0] != 1 || spread[1] != 0 || spread[2] != 0 || spread[3] != 1 {
		t.Errorf("spread: availability %v, %v entries at risk, %v keys lost, worst zone %v; want 1, 0, 0, 1", spread[0], spread[1], spread[2], spread[3])
	}
	if plain[0] >= 1 || plain[3] >= plain[0] {
		t.Errorf("plain: availability %v (worst zone %v) shows no loss — the comparison is vacuous", plain[0], plain[3])
	}
	for label, row := range rows {
		if row[4] != 1 || row[7] != 1 {
			t.Errorf("%s: satisfied %v healthy, %v with a zone cut off; want every lookup satisfied", label, row[4], row[7])
		}
	}
}

// traceSmall is ext-trace's scenario on a 240-server tree of the same
// shape, the scale tier-1 runs it at, here and in
// TestGoldenTablesByteIdentical: the 10 000-server run is CPU-bound at
// about 8 s.
var traceSmall = traceScenario{servers: 240, topology: "4x3x4", keys: 20, perKey: 30, ops: 200}

// With zone-spread placement every lookup reaches t, before and after
// region r1 is cut off, and none finds every server gone.
func TestExtTraceSpreadSurvivesRegionPartition(t *testing.T) {
	tbl, err := traceSmall.run(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows = %d, want steady and partitioned", len(tbl.Rows))
	}
	// Columns: Lookups, Updates, Satisfied %, Unreachable, ...
	for _, row := range tbl.Rows {
		lookups, satisfied, unreachable := row.Values[0], row.Values[2], row.Values[3]
		if lookups == 0 || satisfied != 100 || unreachable != 0 {
			t.Errorf("%s: %v lookups, %v%% satisfied, %v unreachable; want every lookup satisfied", row.Label, lookups, satisfied, unreachable)
		}
	}
	if msgs := tbl.Rows[1].Values[6]; msgs == 0 {
		t.Errorf("partitioned phase counted no messages")
	}
}
