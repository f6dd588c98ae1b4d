package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/wire"
)

// layerProbe holds what the per-layer metrics need besides the two
// phases: the trace's totals, and direct timed calls into single layers' exported
// functions, on inputs sampled from the workload.
type layerProbe struct {
	c       *cluster
	m       *model
	totals  spanTotals
	msgs    []msgSample
	keys    []string // keys in the order the workload asks for them
	dataDir string
	clients int
}

const (
	selectorProbeCalls = 20000
	codecProbeRounds   = 20
	storeProbeKeys     = 1024
	storeProbeCalls    = 50000
	walProbeAppends    = 4000
)

// timeEach runs f n times and returns the mean nanoseconds per call.
func timeEach(n int, f func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return float64(time.Since(start)) / float64(n)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// direct fills the metrics that come from calling one layer alone.
func (lp *layerProbe) direct(m map[string]float64, w workload, st spanTotals, tLookups, tUpdates float64) error {
	// selector: order the identity permutation for workload keys on the
	// selector the run left warm.
	base := make([]int, numServers)
	for i := range base {
		base[i] = i
	}
	m["selector.order_ns"] = timeEach(selectorProbeCalls, func(i int) {
		lp.c.sel.Order(lp.keys[i%len(lp.keys)], base)
	})

	lp.codec(m, st, tLookups, tUpdates)
	lp.store(m)
	if !w.durable {
		return nil
	}
	one, err := lp.walAppendWait(1)
	if err != nil {
		return fmt.Errorf("WAL probe: %w", err)
	}
	all, err := lp.walAppendWait(lp.clients)
	if err != nil {
		return fmt.Errorf("WAL probe: %w", err)
	}
	m["wal.append_wait_us_1_writer"] = one / 1e3
	m["wal.append_wait_us_all_writers"] = all / 1e3
	return nil
}

// codec times the wire codec on request/reply pairs sampled off the
// run's own calls, and prices an operation's bytes on the wire from the
// sampled frame sizes and the exact call counts.
func (lp *layerProbe) codec(m map[string]float64, st spanTotals, tLookups, tUpdates float64) {
	if len(lp.msgs) == 0 {
		return
	}
	var buf []byte
	encoded := make([][2][]byte, len(lp.msgs))
	var lookupBytes, updateBytes, lookupPairs, updatePairs float64
	for i, s := range lp.msgs {
		encoded[i] = [2][]byte{wire.AppendEncode(nil, s.req), wire.AppendEncode(nil, s.reply)}
		frames := float64(len(wire.AppendFrameV2(buf[:0], 1, s.req)) + len(wire.AppendFrameV2(buf[:0], 1, s.reply)))
		if lookupKind(s.req.Kind()) {
			lookupBytes += frames
			lookupPairs++
		} else {
			updateBytes += frames
			updatePairs++
		}
	}
	n := codecProbeRounds * len(lp.msgs)
	m["wire.encode_ns_per_msg"] = timeEach(n, func(i int) {
		s := lp.msgs[i%len(lp.msgs)]
		buf = wire.AppendEncode(buf[:0], s.req)
		buf = wire.AppendEncode(buf[:0], s.reply)
	}) / 2
	m["wire.decode_ns_per_msg"] = timeEach(n, func(i int) {
		e := encoded[i%len(encoded)]
		_, _ = wire.Decode(e[0]) // bytes this package just encoded
		_, _ = wire.Decode(e[1])
	}) / 2
	before := mallocs()
	for i := 0; i < n; i++ {
		s, e := lp.msgs[i%len(lp.msgs)], encoded[i%len(encoded)]
		buf = wire.AppendEncode(buf[:0], s.req)
		_, _ = wire.Decode(e[0])
		buf = wire.AppendEncode(buf[:0], s.reply)
		_, _ = wire.Decode(e[1])
	}
	m["wire.allocs_per_roundtrip"] = float64(mallocs()-before) / float64(n)

	calls := func(count [numSpanNames]int64) float64 {
		return float64(count[spanFrontCall] + count[spanNodeCall] + count[spanPeerCall])
	}
	m["wire.bytes_per_lookup"] = ratio(lookupBytes, lookupPairs) * ratio(calls(st.lookupCount), tLookups)
	m["wire.bytes_per_update"] = ratio(updateBytes, updatePairs) * ratio(calls(st.updateCount), tUpdates)
}

// store times the node's read path (Get, Snapshot, sample t) and write
// path (Update adding or removing one entry) on a volatile store of
// workload-shaped keys, with no WAL and no network.
func (lp *layerProbe) store(m map[string]float64) {
	s := store.New()
	keys := make([]string, storeProbeKeys)
	for k := range keys {
		keys[k] = lp.m.keys[k%len(lp.m.keys)]
		ks := s.GetOrCreate(keys[k], keyConfig(k))
		ks.Update(func(st *store.State) {
			for _, e := range lp.m.baseEntries(k % len(lp.m.keys)) {
				st.Set.Add(e)
			}
		})
	}
	rng := stats.NewRNG(1)
	var sc entry.SampleScratch
	m["store.read_ns_per_lookup"] = timeEach(storeProbeCalls, func(i int) {
		ks, _ := s.Get(keys[i%len(keys)])
		ks.Snapshot().SampleInto(rng, lookupT, &sc)
	})
	m["store.update_ns_per_op"] = timeEach(storeProbeCalls, func(i int) {
		k := i % len(keys)
		ks, _ := s.Get(keys[k])
		e := entry.Entry(lp.m.priv[k%len(lp.m.keys)])
		ks.Update(func(st *store.State) {
			if !st.Set.Add(e) {
				st.Set.Remove(e)
			}
		})
	})
}

// walAppendWait returns the mean nanoseconds one writer waits for
// Append+WaitDurable on a fresh SyncBatch WAL in the run's data dir,
// with the given number of concurrent writers.
func (lp *layerProbe) walAppendWait(writers int) (float64, error) {
	dir := filepath.Join(lp.dataDir, fmt.Sprintf("walprobe-%d", writers))
	wal, err := store.OpenWAL(dir, store.Stripes(), store.SyncBatch, nil)
	if err != nil {
		return 0, err
	}
	if err := wal.Start(); err != nil {
		return 0, err
	}
	defer wal.Close()
	per := walProbeAppends / writers
	var wg sync.WaitGroup
	start := time.Now()
	for wr := 0; wr < writers; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(wr) + 1)
			for i := 0; i < per; i++ {
				k := rng.IntN(len(lp.m.keys))
				stripe := rng.IntN(store.Stripes())
				seq, err := wal.Append(stripe, wire.WalStore{Key: lp.m.keys[k], Entry: lp.m.priv[k]})
				if err == nil {
					_ = wal.WaitDurable(stripe, seq) // a failure is sticky: wal.Err reports it below
				}
			}
		}(wr)
	}
	wg.Wait()
	return float64(time.Since(start)) / float64(per), wal.Err()
}
