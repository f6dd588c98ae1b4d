package node_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/entry"
	"repro/internal/plstest"
	"repro/internal/stats"
	"repro/internal/wire"
)

// FuzzRebalanceAccept throws corrupt membership-transfer traffic at a
// live cluster: RepairPush frames with arbitrary transition claims
// (hostile NewN/Leaving/Epoch), oversized positions, colliding keys,
// and invalid configs land on a placed cluster, then a real join runs
// the rebalance planner over whatever the rogue frames left behind.
// With drained set, the cluster first drains server 0 (epoch 1), so
// every survivor has renumbered before the rogue frames arrive. Four
// properties must survive anything the fuzzer finds:
//
//   - no handler or planner panics;
//   - a push naming the committed drain is judged under the rank its
//     receiver recorded at commit, so no survivor is taken for the
//     leaver, whatever the push claims;
//   - a push naming a later transition than its receiver committed and
//     addressed to that transition's own leaver is refused;
//   - after the genuine join commits, the placed key passes the full
//     structural check at the new size — rogue entries accepted under a
//     claimed transition are themselves re-homed or safely dropped by
//     the real one, never stranded somewhere the scheme forbids.
func FuzzRebalanceAccept(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(2), uint8(1), uint64(7), "a,b,c", []byte{1, 2, 3}, true, uint16(9), uint8(5), int8(-1), uint64(1), false)
	f.Add(uint8(4), uint8(1), uint8(9), uint8(2), uint64(0), "", []byte(nil), false, uint16(0), uint8(0), int8(2), uint64(0), false)
	f.Add(uint8(6), uint8(0), uint8(3), uint8(7), ^uint64(0), "v1,,v2", []byte{255, 0, 31}, true, uint16(65535), uint8(9), int8(-5), ^uint64(0), false)
	f.Add(uint8(3), uint8(8), uint8(0), uint8(3), uint64(42), "zzzz", []byte{7}, false, uint16(1), uint8(4), int8(3), uint64(2), false)
	// Epoch 1 after a drain, to a renumbered survivor (old slot 3, now
	// 2): the push's own leaver claim, slot 2, is this member's current
	// id, and the committed transition says it is no leaver.
	f.Add(uint8(4), uint8(0), uint8(1), uint8(2), uint64(5), "a,b", []byte(nil), false, uint16(0), uint8(5), int8(2), uint64(1), true)

	schemes := []wire.Scheme{
		wire.FullReplication, wire.Fixed, wire.RandomServer,
		wire.RoundRobin, wire.Hash, wire.KeyPartition, wire.MultiProbe,
	}
	f.Fuzz(func(t *testing.T, schemeByte, rx, ry, target uint8,
		seed uint64, blob string, posBlob []byte, hasPos bool, hcount uint16,
		newN8 uint8, leaving8 int8, epoch uint64, drained bool) {
		const n = 4 // members when the rogue frames land
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

		members := n
		if drained {
			members++ // server 0 drains before the rogue frames land
		}
		h := newHarness(t, members, 9)
		live := liveFrom(entry.Synthetic(12))
		h.place(initialServer(cfg, "k", h.cl.N()), cfg, entry.Synthetic(12))
		if drained {
			if _, err := h.cl.Drain(ctx, 0); err != nil {
				t.Fatalf("Drain(0): %v", err)
			}
		}

		// Rogue entries are prefixed so they cannot collide with the
		// placed population (the same trust split as FuzzRepairPlan).
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
		// Hostile transition claims under the true config: NewN ranges
		// over invalid (-1), none (0: a repair push under the live
		// membership) and mismatched sizes, Leaving over the whole int8
		// range.
		reply := h.cl.Node(tgt).Handle(ctx, wire.RepairPush{
			Key: "k", Config: cfg, Entries: entries,
			Positions: positions, HasPos: hasPos, HCount: int(hcount),
			Epoch: epoch, NewN: int(newN8)%7 - 1, Leaving: int(leaving8),
		})
		if pr, _ := reply.(wire.RepairPushReply); drained && epoch == 1 && strings.Contains(pr.Err, "addressed to the leaver") {
			t.Fatalf("survivor %d taken for the leaver of its committed drain: %+v", tgt, reply)
		}
		// A push addressed to the leaver of a transition later than the
		// one its receiver committed must bounce.
		reply = h.cl.Node(tgt).Handle(ctx, wire.RepairPush{
			Key: "k", Config: cfg, Entries: entries,
			Positions: positions, HasPos: hasPos,
			Epoch: max(epoch, h.cl.MemberEpoch()+1), NewN: n, Leaving: tgt,
		})
		if pr, ok := reply.(wire.RepairPushReply); !ok || pr.Err == "" {
			t.Fatalf("push addressed to the leaver accepted: %+v", reply)
		}
		// Hostile config on a fresh key: invalid configs may not create
		// key state (validated against the claimed post-change size).
		h.cl.Node(tgt).Handle(ctx, wire.RepairPush{
			Key: "k2",
			Config: wire.Config{
				Scheme: wire.Scheme(schemeByte), X: int(rx) - 4, Y: int(ry) - 4, Seed: seed,
			},
			Entries: entries, Positions: positions, HasPos: hasPos,
			HCount: int(hcount), Epoch: epoch, NewN: int(newN8) % 7, Leaving: int(leaving8),
		})

		// A genuine join re-homes whatever the rogue frames left behind;
		// the structural invariants must then hold at the new size, and
		// the placed population must still be fully covered.
		if _, err := h.cl.Join(ctx, stats.NewRNG(seed|1)); err != nil {
			t.Fatalf("Join: %v", err)
		}
		v := plstest.Observe(h.cl, "k", cfg)
		if errs := v.Check(nil); len(errs) != 0 {
			t.Fatalf("post-join structural violations: %v", errs)
		}
		if cfg.Scheme != wire.RandomServer { // rogue HCount legitimately skews the RS count estimate
			if errs := v.CheckCoverage(live); len(errs) != 0 {
				t.Fatalf("post-join coverage violations: %v", errs)
			}
		}
	})
}
