package store

import (
	"testing"

	"repro/internal/entry"
	"repro/internal/wire"
)

// TestAppendWaitDurableZeroAllocs gates the durable half of an update
// the way wire's and transport's alloc tests gate theirs: a warm
// Append frames the record straight into one of the log's two retained
// buffers and the waiter commits it on its own stack, so the pair
// allocates nothing once the record is boxed. A request's wait on a
// log a commit already covered allocates nothing either.
func TestAppendWaitDurableZeroAllocs(t *testing.T) {
	w := mustOpen(t, t.TempDir(), SyncBatch)
	mustStart(t, w)
	defer w.Close()
	s := New()
	s.AttachWAL(w)
	recs := []wire.Message{wire.WalStore{Key: "hot-key", Entry: "entry-0001", Pos: 7, HasPos: true}}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"Append+WaitDurable", func() error {
			seq, err := w.Append(0, recs...)
			if err == nil {
				err = w.WaitDurable(0, seq)
			}
			return err
		}},
		{"covered Store.WaitDurable", s.WaitDurable},
	} {
		run := func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}
		run() // grow one buffer; AllocsPerRun's warm-up run grows the other
		if allocs := testing.AllocsPerRun(100, run); allocs > 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", c.name, allocs)
		}
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

// TestGetZeroAllocs gates the read path's key lookup: Get takes its key
// as a string and the index takes it as any, and neither a stored key
// nor an absent one may cost an allocation for it.
func TestGetZeroAllocs(t *testing.T) {
	s := New()
	s.GetOrCreate("stored", wire.Config{Scheme: wire.FullReplication})
	for _, key := range []string{"stored", "absent"} {
		if allocs := testing.AllocsPerRun(100, func() { s.Get(key) }); allocs > 0 {
			t.Errorf("Get(%q): %.1f allocs/op, want 0", key, allocs)
		}
	}
}
