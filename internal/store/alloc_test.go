package store

import (
	"testing"

	"repro/internal/entry"
	"repro/internal/wire"
)

// TestAppendWaitDurableZeroAllocs gates the durable half of an update
// the way wire's and transport's alloc tests gate theirs: a warm
// Append frames the record straight into the stripe's retained buffer
// and the waiter commits it on its own stack, so the pair allocates
// nothing once the record is boxed.
func TestAppendWaitDurableZeroAllocs(t *testing.T) {
	w := mustOpen(t, t.TempDir(), SyncBatch)
	mustStart(t, w)
	defer w.Close()
	recs := []wire.Message{wire.WalStore{Key: "hot-key", Entry: "entry-0001", Pos: 7, HasPos: true}}
	commit := func() {
		seq, err := w.Append(1, recs...)
		if err == nil {
			err = w.WaitDurable(1, seq)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	commit() // grow the stripe buffer
	if allocs := testing.AllocsPerRun(100, commit); allocs > 0 {
		t.Errorf("Append+WaitDurable: %.1f allocs/op, want 0", allocs)
	}
}

// TestUnreadUpdateDoesNotClone gates the snapshot rule from the
// writer's side: with no reader between them, updates only invalidate.
func TestUnreadUpdateDoesNotClone(t *testing.T) {
	ks := New().GetOrCreate("k", wire.Config{Scheme: wire.FullReplication})
	ks.Update(func(st *State) {
		for _, e := range []entry.Entry{"a", "b", "c", "d"} {
			st.Set.Add(e)
		}
	})
	ks.Snapshot() // one reader, long ago
	toggle := func() {
		ks.Update(func(st *State) {
			if !st.Set.Add("x") {
				st.Set.Remove("x")
			}
		})
	}
	toggle() // consumes the read bit: this one republishes
	if allocs := testing.AllocsPerRun(100, toggle); allocs > 0 {
		t.Errorf("unread Update: %.1f allocs/op, want 0", allocs)
	}
}
