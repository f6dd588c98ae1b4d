package store

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/wire"
)

var scaleCfg = wire.Config{Scheme: wire.Hash, Y: 2}

func keyNames(prefix string, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return keys
}

func filledStore(keys []string) *Store {
	s := New()
	for _, k := range keys {
		s.GetOrCreate(k, scaleCfg)
	}
	return s
}

// bytesPerNewKey returns the heap bytes create allocates per key, on
// average over fresh keys added to a store already holding existing.
func bytesPerNewKey(existing int, create func(*Store, string)) float64 {
	s := filledStore(keyNames("old", existing))
	fresh := keyNames("new", 2000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range fresh {
		create(s, k)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(len(fresh))
}

// TestNewKeyCostDoesNotGrowWithStore: creating a key by GetOrCreate —
// as traffic and recovery's replay both do — allocates about the same
// bytes whether the store holds 1 000 keys or 50 000. A store that
// copied its key map per new key would allocate some fifty times
// more at 50 000, which makes a bulk load or a recovery quadratic in
// keys.
func TestNewKeyCostDoesNotGrowWithStore(t *testing.T) {
	// What one key costs whatever the store holds (the KeyState, its
	// set, its entry in the key index) is a few hundred bytes; the slack
	// allows for the index growth that lands in one window and not the
	// other.
	const slack = 512
	create := func(s *Store, k string) { s.GetOrCreate(k, scaleCfg) }
	small := bytesPerNewKey(1000, create)
	large := bytesPerNewKey(50000, create)
	t.Logf("%.0f B/key at 1 000 keys, %.0f B/key at 50 000", small, large)
	if large > small+slack {
		t.Errorf("a new key costs %.0f B at 50 000 keys against %.0f B at 1 000", large, small)
	}
}

// TestConcurrentCreateGetRange: workers create keys while others look
// up keys already created and Range runs, so lookups race creations
// and the key index's growth. A key whose creation finished before a
// Get began is always found.
func TestConcurrentCreateGetRange(t *testing.T) {
	const workers, per = 4, 3000
	s := New()
	var created [workers]atomic.Int64 // keys worker w has finished creating
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.GetOrCreate(fmt.Sprintf("w%d-%d", w, i), scaleCfg)
				created[w].Store(int64(i + 1))
				o := (w + 1 + i) % workers
				if n := created[o].Load(); n > 0 {
					k := fmt.Sprintf("w%d-%d", o, (i*7)%int(n))
					if _, ok := s.Get(k); !ok {
						t.Errorf("worker %d: Get(%q) missed a key created before it", w, k)
						return
					}
				}
				if i%1000 == 0 {
					s.Range(func(string, *KeyState) bool { return true })
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Keys() != workers*per {
		t.Fatalf("Keys() = %d, want %d", s.Keys(), workers*per)
	}
}

// BenchmarkStoreGetOrCreate times creating a new key in a store that
// holds between n and 2n keys: every n creations the store is refilled
// to n, off the clock.
func BenchmarkStoreGetOrCreate(b *testing.B) {
	for _, n := range []int{1000, 50000} {
		b.Run(fmt.Sprintf("existing=%d", n), func(b *testing.B) {
			keys := keyNames("key", 2*n)
			s := filledStore(keys[:n])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i % n
				if i > 0 && j == 0 {
					b.StopTimer()
					s = filledStore(keys[:n])
					b.StartTimer()
				}
				s.GetOrCreate(keys[n+j], scaleCfg)
			}
		})
	}
}

// BenchmarkStoreGet times the read path's key lookup over 6 000 keys,
// read_direct_uniform's key count.
func BenchmarkStoreGet(b *testing.B) {
	keys := keyNames("key", 6000)
	s := filledStore(keys)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Get(keys[i%len(keys)])
	}
}
