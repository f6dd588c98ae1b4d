package node_test

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/plstest"
	"repro/internal/stats"
	"repro/internal/wire"
)

// TestRepairChurnSoak is the deterministic kill/replace soak: every
// round a seeded victim is permanently lost and replaced with a blank
// server, followed by a batch of normal adds. The test runs each
// scheme twice with identical seeds — repair sweeps on vs off — and
// asserts causality both ways:
//
//   - repair ON: the full invariant checker (structural + coverage)
//     passes after every sweep, every round;
//   - repair OFF: the same workload ends with coverage violations, so
//     the decay is real and the sweeps — not the workload — are what
//     keeps the on arm healthy.
//
// The workload is add-only on purpose: RandomServer-x coverage claims
// (every alive server back at x) are only valid without un-refilled
// deletes (the cushion semantics). Delete churn is exercised
// separately by TestChurnInvariantsAllSchemes.
func TestRepairChurnSoak(t *testing.T) {
	const (
		n            = 8
		rounds       = 5
		addsPerRound = 6
	)
	// Victims avoid server 0, the Round-y sequencer, so the soak's adds
	// always have it (TestCoordinatorReplicationFailover replaces it).
	victims := [rounds]int{3, 5, 2, 6, 4}
	for _, cfg := range []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.Fixed, X: 12},
		{Scheme: wire.RandomServer, X: 12},
		{Scheme: wire.RoundRobin, Y: 3},
		// Seed 2: every soak entry (v1..v30, c0..c29) keeps >=2 distinct
		// homes at n=8, so one lost server always leaves a donor.
		{Scheme: wire.Hash, Y: 3, Seed: 2},
	} {
		t.Run(cfg.Scheme.String(), func(t *testing.T) {
			run := func(repairOn bool) (*cluster.Cluster, *entry.Set) {
				h := newHarness(t, n, 55)
				initial := entry.Synthetic(30)
				live := liveFrom(initial)
				h.place(initialServer(cfg, "k", n), cfg, initial)
				nextID := 0
				for round := 0; round < rounds; round++ {
					victim := victims[round]
					h.cl.Fail(victim)
					h.cl.Replace(victim, stats.NewRNG(uint64(7000+round)))
					if repairOn {
						sweepAll(h.cl)
						v := plstest.Observe(h.cl, "k", cfg)
						ctxt := fmt.Sprintf("round %d post-sweep", round)
						plstest.Assert(t, ctxt+" structural", v.Check(live))
						plstest.Assert(t, ctxt+" coverage", v.CheckCoverage(live))
					}
					// Normal foreground traffic continues either way.
					for a := 0; a < addsPerRound; a++ {
						v := entry.Entry(fmt.Sprintf("c%d", nextID))
						nextID++
						h.mustAck(initialServer(cfg, "k", n), wire.Add{Key: "k", Config: cfg, Entry: string(v)})
						live.Add(v)
					}
				}
				return h.cl, live
			}

			on, liveOn := run(true)
			// Final sweep so the last round's adds and replacement have
			// converged, then the checker must be fully clean.
			sweepAll(on)
			v := plstest.Observe(on, "k", cfg)
			plstest.Assert(t, "final structural", v.Check(liveOn))
			plstest.Assert(t, "final coverage", v.CheckCoverage(liveOn))

			off, liveOff := run(false)
			vo := plstest.Observe(off, "k", cfg)
			// Structure never breaks — servers just fall behind.
			plstest.Assert(t, "repair-off structural", vo.Check(liveOff))
			if errs := vo.CheckCoverage(liveOff); len(errs) == 0 {
				t.Fatal("repair-off arm shows no coverage decay; soak proves nothing")
			}
		})
	}
}
