package experiments

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/stats"
)

// ExtRepair is the churn arm of the availability story. A seeded
// kill/replace loop permanently destroys one server's entries per
// round; the identical workload runs twice per scheme — anti-entropy
// sweeps on, then off — and the table reports the achieved answer size
// of t-lookups as a fraction of t, over all rounds and in the last one.
// With repair on it must hold near 1; with repair off it decays as
// entries lose their last copies, which is exactly the failure mode the
// sweeper exists to stop. The two schemes are the two repair planning
// shapes: fill-to-x donors and deterministic Hash-y homes.
func ExtRepair(_ Fidelity, seed uint64) (*Table, error) {
	const (
		servers = 10
		keys    = 12
		perKey  = 40
		target  = 35
		rounds  = 8
	)
	key := func(k int) string { return fmt.Sprintf("rk-%d", k) }
	entries := numberedEntries(perKey)

	t := &Table{
		ID: "ext-repair",
		Title: fmt.Sprintf("Achieved-t under kill/replace churn, anti-entropy repair on vs. off (%d servers, %d keys x %d entries, t=%d, %d rounds)",
			servers, keys, perKey, target, rounds),
		XLabel:  "Scheme / repair",
		Columns: []string{"Lookups", "Satisfied", "Achieved/t", "Last round achieved/t", "Sweeps", "Entries moved"},
		Notes: []string{
			"each round one server dies for good and is replaced blank; every server sweeps once (on arm); then every key gets a t-lookup",
		},
	}
	for _, cfg := range []core.Config{
		{Scheme: core.RandomServer, X: 16},
		{Scheme: core.Hash, Y: 3, Seed: 1},
	} {
		for _, on := range []bool{true, false} {
			// -seed 1 is the scenario the docs quote (RNG seed 21).
			rng := stats.NewRNG(seed + 20)
			cl := newCluster(servers, rng.Split())
			svc, err := core.NewService(cl.Caller(),
				core.WithSeed(rng.Uint64()),
				core.WithDefaultConfig(cfg))
			if err != nil {
				return nil, closing(cl, err)
			}
			for k := 0; k < keys; k++ {
				if err := svc.Place(ctxB(), key(k), entries); err != nil {
					return nil, closing(cl, fmt.Errorf("ext-repair: place %s: %w", key(k), err))
				}
			}
			label := cfg.String() + " off"
			var repairers []*node.Repairer
			if on {
				label = cfg.String() + " on"
				for i := 0; i < servers; i++ {
					repairers = append(repairers, node.NewRepairer(cl.Node(i), node.RepairOptions{Health: cl.Health()}))
				}
			}

			satisfied, sweeps, moved, achieved, last := 0, 0, 0, 0, 0
			for r := 0; r < rounds; r++ {
				victim := r % servers
				cl.Fail(victim)
				cl.Replace(victim, stats.NewRNG(uint64(5000+r)))
				for _, rp := range repairers {
					sweeps++
					moved += rp.SweepOnce(ctxB()).Moved
				}
				last = 0
				for k := 0; k < keys; k++ {
					got, err := achievedOf(svc, key(k), target)
					if err != nil {
						return nil, closing(cl, fmt.Errorf("ext-repair: round %d: %w", r, err))
					}
					if got == target {
						satisfied++
					}
					last += got
				}
				achieved += last
			}
			if err := cl.Close(); err != nil {
				return nil, err
			}
			t.AddRow(label,
				float64(keys*rounds), float64(satisfied),
				float64(achieved)/float64(keys*rounds*target), float64(last)/float64(keys*target),
				float64(sweeps), float64(moved))
		}
	}
	return t, nil
}

// numberedEntries returns the n entries e00, e01, ... the churn
// scenarios place under every key.
func numberedEntries(n int) []core.Entry {
	entries := make([]core.Entry, n)
	for i := range entries {
		entries[i] = fmt.Sprintf("e%02d", i)
	}
	return entries
}

// achievedOf runs one t-lookup and returns how much of t it achieved,
// min(answer size, t): under churn a short answer is the measurement,
// not an error.
func achievedOf(svc *core.Service, key string, t int) (int, error) {
	res, err := svc.PartialLookup(ctxB(), key, t)
	if err != nil && !errors.Is(err, core.ErrPartialResult) {
		return 0, fmt.Errorf("lookup %s: %w", key, err)
	}
	return min(len(res.Entries), t), nil
}
