package node_test

import (
	"context"
	"testing"

	"repro/internal/entry"
	"repro/internal/plstest"
	"repro/internal/stats"
	"repro/internal/wire"
)

// FuzzRepairPlan throws corrupt repair traffic and partial snapshots at
// a live cluster: arbitrary RepairQuery/RepairPush fields (hostile
// configs, colliding keys, oversized positions, invalid entries) land
// on a placed cluster, then a kill/replace plus full sweep runs the
// planner over whatever state the rogue messages left behind. Two
// properties must survive anything the fuzzer finds:
//
//   - no handler or planner panics;
//   - the structural invariants of the placed key still hold — a
//     corrupt payload can be dropped, but never stored somewhere its
//     key's scheme forbids.
func FuzzRepairPlan(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(2), uint8(1), uint64(7), "a,b,c", []byte{1, 2, 3}, true, uint16(9))
	f.Add(uint8(3), uint8(1), uint8(9), uint8(2), uint64(0), "", []byte(nil), false, uint16(0))
	f.Add(uint8(4), uint8(0), uint8(3), uint8(7), ^uint64(0), "v1,,v2", []byte{255, 0, 31}, true, uint16(65535))
	f.Add(uint8(9), uint8(8), uint8(0), uint8(3), uint64(42), "zzzz", []byte{7}, false, uint16(1))
	f.Add(uint8(6), uint8(3), uint8(1), uint8(0), uint64(0x5eed), "m1,m2", []byte{4, 4}, true, uint16(12))

	schemes := []wire.Scheme{
		wire.FullReplication, wire.Fixed, wire.RandomServer,
		wire.RoundRobin, wire.Hash, wire.KeyPartition, wire.MultiProbe,
	}
	f.Fuzz(func(t *testing.T, schemeByte, rx, ry, target uint8,
		seed uint64, blob string, posBlob []byte, hasPos bool, hcount uint16) {
		const n = 4
		ctx := context.Background()
		cfg := wire.Config{Scheme: schemes[int(schemeByte)%len(schemes)]}
		switch cfg.Scheme {
		case wire.Fixed, wire.RandomServer:
			cfg.X = 1 + int(rx)%8
		case wire.RoundRobin:
			cfg.Y = 1 + int(ry)%n
		case wire.Hash, wire.MultiProbe:
			cfg.Y = 1 + int(ry)%n
			cfg.Seed = seed
		}

		h := newHarness(t, n, 9)
		h.place(initialServer(cfg, "k", n), cfg, entry.Synthetic(12))

		// Rogue entries are prefixed so they cannot collide with the
		// placed population: repair acceptance is receiver-local and
		// cannot arbitrate two hostile pushes that disagree about a real
		// entry's Round position — that is the WAL's (single writer per
		// server) and the coordinator protocol's job, not repair's.
		var entries []string
		start := 0
		for i := 0; i <= len(blob) && len(entries) < 8; i++ {
			if i == len(blob) || blob[i] == ',' {
				entries = append(entries, "z-"+blob[start:i])
				start = i + 1
			}
		}
		positions := make([]uint64, len(posBlob))
		for i, b := range posBlob {
			positions[i] = uint64(b) << (b % 60) // hits the overflow guard
		}

		tgt := int(target) % n
		h.cl.Node(tgt).Handle(ctx, wire.RepairQuery{Key: "k", Entries: entries})
		h.cl.Node(tgt).Handle(ctx, wire.RepairQuery{Key: "absent", Entries: entries})
		// Corrupt payload under the true config: whatever the entries,
		// positions, and counters claim, acceptance may only land them
		// where the scheme allows.
		h.cl.Node(tgt).Handle(ctx, wire.RepairPush{
			Key: "k", Config: cfg, Entries: entries,
			Positions: positions, HasPos: hasPos, HCount: int(hcount),
		})
		// Hostile config on a fresh key: config authenticity is the
		// transport's trust domain (StoreBatch/StoreOne carry configs
		// the same way), so the only claims here are no-panic and that
		// invalid configs cannot create key state.
		h.cl.Node(tgt).Handle(ctx, wire.RepairPush{
			Key: "k2",
			Config: wire.Config{
				Scheme: wire.Scheme(schemeByte), X: int(rx) - 4, Y: int(ry) - 4, Seed: seed,
			},
			Entries: entries, Positions: positions, HasPos: hasPos, HCount: int(hcount),
		})
		v := plstest.Observe(h.cl, "k", cfg)
		if errs := v.Check(nil); len(errs) != 0 {
			t.Fatalf("rogue push broke structural invariants: %v", errs)
		}

		// Planner over the partial/corrupt state: kill/replace, sweep
		// everyone, and the structure must still hold.
		h.cl.Fail(tgt)
		h.cl.Replace(tgt, stats.NewRNG(seed))
		sweepAll(h.cl)
		v = plstest.Observe(h.cl, "k", cfg)
		if errs := v.Check(nil); len(errs) != 0 {
			t.Fatalf("post-sweep structural violations: %v", errs)
		}
	})
}
