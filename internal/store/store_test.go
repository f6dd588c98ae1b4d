package store_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/wire"
)

func TestGetUnknownKey(t *testing.T) {
	s := store.New()
	if _, ok := s.Get("nope"); ok {
		t.Fatal("Get of unknown key reported ok")
	}
	if s.Keys() != 0 || s.EntryCount() != 0 {
		t.Fatalf("empty store reports %d keys, %d entries", s.Keys(), s.EntryCount())
	}
}

func TestGetOrCreateInstallsConfig(t *testing.T) {
	s := store.New()
	cfg := wire.Config{Scheme: wire.Fixed, X: 3}
	ks := s.GetOrCreate("k", cfg)
	if got := ks.Config(); got != cfg {
		t.Fatalf("Config = %+v, want %+v", got, cfg)
	}
	// A second GetOrCreate with a different config must not overwrite.
	again := s.GetOrCreate("k", wire.Config{Scheme: wire.Hash, Y: 2})
	if again != ks {
		t.Fatal("GetOrCreate returned a different KeyState for the same key")
	}
	if got := ks.Config(); got != cfg {
		t.Fatalf("Config overwritten to %+v", got)
	}
	if s.Keys() != 1 {
		t.Fatalf("Keys = %d, want 1", s.Keys())
	}
}

func TestSchemelessConfigAdoption(t *testing.T) {
	// A key created by a config-less message (e.g. CounterSync) adopts
	// the first valid config it sees.
	s := store.New()
	ks := s.GetOrCreate("k", wire.Config{})
	if ks.Config().Scheme.Valid() {
		t.Fatal("schemeless create produced a valid scheme")
	}
	cfg := wire.Config{Scheme: wire.RoundRobin, Y: 2}
	s.GetOrCreate("k", cfg)
	if got := ks.Config(); got != cfg {
		t.Fatalf("config after adoption = %+v, want %+v", got, cfg)
	}
}

func TestSnapshotCopyOnWrite(t *testing.T) {
	s := store.New()
	ks := s.GetOrCreate("k", wire.Config{Scheme: wire.FullReplication})
	ks.Update(func(st *store.State) {
		st.Set.Add("a")
		st.Set.Add("b")
	})
	snap1 := ks.Snapshot()
	if snap1.Len() != 2 {
		t.Fatalf("snapshot has %d entries, want 2", snap1.Len())
	}
	// Stable until invalidated: repeated reads return the same clone.
	if ks.Snapshot() != snap1 {
		t.Fatal("snapshot not reused between writes")
	}
	ks.Update(func(st *store.State) { st.Set.Add("c") })
	snap2 := ks.Snapshot()
	if snap2 == snap1 {
		t.Fatal("snapshot not invalidated by Update")
	}
	if snap1.Len() != 2 || snap2.Len() != 3 {
		t.Fatalf("old/new snapshot sizes = %d/%d, want 2/3", snap1.Len(), snap2.Len())
	}
}

func TestExtStateRoundTrips(t *testing.T) {
	type ext struct{ head, tail int }
	s := store.New()
	ks := s.GetOrCreate("k", wire.Config{Scheme: wire.RoundRobin, Y: 1})
	ks.Update(func(st *store.State) {
		if st.Ext == nil {
			st.Ext = &ext{}
		}
		st.Ext.(*ext).tail = 7
	})
	var tail int
	ks.View(func(st *store.State) { tail = st.Ext.(*ext).tail })
	if tail != 7 {
		t.Fatalf("ext tail = %d, want 7", tail)
	}
}

func TestCountsAndRange(t *testing.T) {
	s := store.New()
	for i := 0; i < 100; i++ {
		ks := s.GetOrCreate(fmt.Sprintf("key-%d", i), wire.Config{Scheme: wire.FullReplication})
		ks.Update(func(st *store.State) {
			for j := 0; j <= i%3; j++ {
				st.Set.Add(entry.Entry(fmt.Sprintf("v%d", j)))
			}
		})
	}
	if s.Keys() != 100 {
		t.Fatalf("Keys = %d, want 100", s.Keys())
	}
	want := 0
	for i := 0; i < 100; i++ {
		want += i%3 + 1
	}
	if got := s.EntryCount(); got != want {
		t.Fatalf("EntryCount = %d, want %d", got, want)
	}
	seen := 0
	s.Range(func(key string, ks *store.KeyState) bool {
		seen++
		return true
	})
	if seen != 100 {
		t.Fatalf("Range visited %d keys, want 100", seen)
	}
	// Early termination.
	seen = 0
	s.Range(func(string, *store.KeyState) bool { seen++; return seen < 10 })
	if seen != 10 {
		t.Fatalf("Range visited %d keys after stop, want 10", seen)
	}
}

// TestConcurrentKeyIndependence hammers distinct keys from many
// goroutines under -race: mutations on one key must never interfere
// with snapshots of another, and per-key totals must come out exact.
func TestConcurrentKeyIndependence(t *testing.T) {
	const (
		workers = 8
		ops     = 500
	)
	s := store.New()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("worker-%d", w)
			ks := s.GetOrCreate(key, wire.Config{Scheme: wire.FullReplication})
			for i := 0; i < ops; i++ {
				ks.Update(func(st *store.State) {
					st.Set.Add(entry.Entry(fmt.Sprintf("v%d", i)))
				})
				if snap := ks.Snapshot(); snap.Len() != i+1 {
					t.Errorf("worker %d: snapshot len %d, want %d", w, snap.Len(), i+1)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.EntryCount(); got != workers*ops {
		t.Fatalf("EntryCount = %d, want %d", got, workers*ops)
	}
}

// TestConcurrentSameKey mixes readers and writers on one key: readers
// must always observe a consistent snapshot (size only ever grows).
func TestConcurrentSameKey(t *testing.T) {
	s := store.New()
	ks := s.GetOrCreate("k", wire.Config{Scheme: wire.FullReplication})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := ks.Snapshot().Len()
				if n < prev {
					t.Errorf("snapshot shrank from %d to %d", prev, n)
					return
				}
				prev = n
			}
		}()
	}
	for i := 0; i < 2000; i++ {
		ks.Update(func(st *store.State) {
			st.Set.Add(entry.Entry(fmt.Sprintf("v%d", i)))
		})
	}
	close(stop)
	wg.Wait()
}

// TestSnapshotAfterUnreadUpdates: an Update whose predecessor's
// snapshot nobody read only invalidates, and the next reader rebuilds —
// it must see every write of the run, not a snapshot from before it.
func TestSnapshotAfterUnreadUpdates(t *testing.T) {
	s := store.New()
	ks := s.GetOrCreate("k", wire.Config{Scheme: wire.FullReplication})
	ks.Update(func(st *store.State) { st.Set.Add("a") })
	read := ks.Snapshot() // consumed: the next Update republishes
	for _, e := range []entry.Entry{"b", "c", "d"} {
		ks.Update(func(st *store.State) { st.Set.Add(e) }) // "c" and "d" follow an unread snapshot
	}
	snap := ks.Snapshot()
	if snap.Len() != 4 || !snap.Contains("d") {
		t.Fatalf("snapshot after unread updates has %d entries, want a..d", snap.Len())
	}
	if read.Len() != 1 {
		t.Fatalf("the earlier snapshot changed under its reader: %d entries", read.Len())
	}
	if ks.Snapshot() != snap {
		t.Fatal("rebuilt snapshot not reused between writes")
	}
}

// TestUpdateAfterWALCloseIsNotAcked: a mutation the closed log refused
// must fail the key's durability wait, not ride on the sequence of the
// key's last logged record.
func TestUpdateAfterWALCloseIsNotAcked(t *testing.T) {
	w, err := store.OpenWAL(t.TempDir(), 1, store.SyncBatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	s := store.New()
	s.AttachWAL(w)
	ks := s.GetOrCreate("k", wire.Config{Scheme: wire.FullReplication})
	add := func(e string) {
		ks.Update(func(st *store.State) {
			st.Set.Add(entry.Entry(e))
			st.Log(wire.WalStore{Key: "k", Entry: e})
		})
	}
	add("logged")
	if err := ks.WaitDurable(); err != nil {
		t.Fatalf("WaitDurable before Close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	add("never logged")
	if err := ks.WaitDurable(); !errors.Is(err, store.ErrWALClosed) {
		t.Fatalf("WaitDurable after an update on a closed log = %v, want ErrWALClosed", err)
	}
}

// TestEpochReadsAfterDemand pins the read-driven publication rule: an
// Update that follows a read publishes the next snapshot eagerly, so a
// key that is read between its writes keeps its readers on the
// atomic-load fast path.
func TestEpochReadsAfterDemand(t *testing.T) {
	s := store.New()
	ks := s.GetOrCreate("k", wire.Config{Scheme: wire.FullReplication})
	ks.Update(func(st *store.State) { st.Set.Add("a") })

	// The first read builds the snapshot and marks it read.
	if got := ks.Snapshot().Len(); got != 1 {
		t.Fatalf("first snapshot has %d entries, want 1", got)
	}
	// Every write that follows a read publishes the next epoch
	// immediately: each read observes the write that preceded it, and
	// consecutive reads with no intervening write return the identical
	// epoch.
	for i := 0; i < 5; i++ {
		ks.Update(func(st *store.State) { st.Set.Add(entry.Entry(fmt.Sprintf("e%d", i))) })
		snap := ks.Snapshot()
		if snap.Len() != i+2 {
			t.Fatalf("epoch %d has %d entries, want %d", i, snap.Len(), i+2)
		}
		if ks.Snapshot() != snap {
			t.Fatalf("epoch %d not stable across reads", i)
		}
	}
}

// TestRangeDuringCreate pins that Range never blocks on (or crashes
// under) concurrent key creation: the shard maps it iterates are
// immutable published epochs.
func TestRangeDuringCreate(t *testing.T) {
	s := store.New()
	for i := 0; i < 64; i++ {
		s.GetOrCreate(fmt.Sprintf("seed-%d", i), wire.Config{Scheme: wire.FullReplication})
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				s.GetOrCreate(fmt.Sprintf("live-%d", i), wire.Config{Scheme: wire.FullReplication})
			}
		}
	}()
	for pass := 0; pass < 50; pass++ {
		seen := 0
		s.Range(func(string, *store.KeyState) bool { seen++; return true })
		if seen < 64 {
			t.Fatalf("Range pass %d saw %d keys, want >= 64", pass, seen)
		}
	}
	close(stop)
	wg.Wait()
}
