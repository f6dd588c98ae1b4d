package node

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wire"
)

// TestRecoveryPreservesRebalance pins the membership half of the WAL
// claim: rebalance moves and drops are logged like any other mutation,
// so a coordinator crash mid-transition — some members have committed
// the update and swept, some never heard of it — recovers every node
// byte-identically, and re-driving the same update converges the
// cluster without inventing or losing anything.
func TestRecoveryPreservesRebalance(t *testing.T) {
	const n = 4
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 0x5eed}
	dirs := nodeDirs(t, n)
	dc := newDurCluster(t, n, 42, dirs, store.SyncBatch)
	for k := 0; k < 2; k++ {
		dc.runWorkload(fmt.Sprintf("key-%d", k), cfg)
	}

	// A 5th member joins: a durable node takes the appended slot.
	joinDir := filepath.Join(t.TempDir(), "joiner")
	if err := os.MkdirAll(joinDir, 0o755); err != nil {
		t.Fatal(err)
	}
	joiner := New(n, stats.NewRNG(600))
	jd, err := joiner.OpenDurability(joinDir, store.SyncBatch, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := dc.tr.Add(fmt.Sprintf("sim://%d", n), joiner); got != n {
		t.Fatalf("transport Add assigned slot %d, want %d", got, n)
	}
	dc.attach(n, joiner)
	dc.nodes = append(dc.nodes, joiner)
	dc.durs = append(dc.durs, jd)
	dirs = append(dirs, joinDir)

	addrs := make([]string, n+1)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("sim://%d", i)
	}
	update := wire.MembershipUpdate{Epoch: 1, Leaving: -1, Addrs: addrs}
	// Mid-rebalance crash window: the coordinator dies after only
	// servers 0 and 1 committed the update. Their moves onto the joiner
	// are acked, hence durable on both ends.
	for _, s := range []int{0, 1} {
		dc.mustAck(s, update)
	}
	want := make([]map[string]wire.SnapKey, len(dc.nodes))
	for i, nd := range dc.nodes {
		want[i] = captureState(nd)
	}
	// Crash: abandon without closing anything; the WAL tails must carry
	// every accepted move and confirmed drop.

	rc := newDurCluster(t, n+1, 42, dirs, store.SyncBatch)
	for i, nd := range rc.nodes {
		if got := captureState(nd); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("node %d state diverged after mid-rebalance crash:\n got %#v\nwant %#v", i, got, want[i])
		}
	}

	// The restarted coordinator re-drives the same update to everyone
	// (member epochs are in-memory, so the early committers simply redo
	// an idempotent sweep), after which the cluster must sit exactly on
	// the n=5 Hash assignment.
	for s := 0; s <= n; s++ {
		rc.mustAck(s, update)
	}
	for k := 0; k < 2; k++ {
		key := fmt.Sprintf("key-%d", k)
		live := map[string]bool{}
		for i := 2; i <= 8; i++ { // runWorkload deletes v1 and add1
			live[fmt.Sprintf("%s-v%d", key, i)] = true
		}
		for _, i := range []int{0, 2, 3} {
			live[fmt.Sprintf("%s-add%d", key, i)] = true
		}
		for i, nd := range rc.nodes {
			for _, m := range nd.LocalSet(key).Members() {
				if !live[string(m)] {
					t.Errorf("server %d stores %q, not in the live set", i, m)
				}
				home := false
				for _, h := range HashAssign(string(m), cfg.Y, n+1, cfg.Seed) {
					if h == i {
						home = true
					}
				}
				if !home {
					t.Errorf("server %d stores %q outside its n=%d Hash assignment", i, m, n+1)
				}
			}
		}
		for s := range live {
			for _, h := range HashAssign(s, cfg.Y, n+1, cfg.Seed) {
				if !rc.nodes[h].LocalSet(key).Contains(entry.Entry(s)) {
					t.Errorf("home %d is missing live entry %q after recovery + re-drive", h, s)
				}
			}
		}
	}
}
