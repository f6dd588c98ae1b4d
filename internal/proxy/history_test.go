package proxy_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// A seeded concurrent history through Proxy.Handle, checked against the
// model bench/ uses. Every key has base entries that are never deleted
// and one private entry that its owning worker alone adds and deletes
// in alternation, so two counters per key — adds begun, deletes acked —
// decide whether a lookup may still see the private entry: only if an
// add of it began after the last delete acked before the lookup
// started. Every answer must also hold at least t distinct entries of
// its key. Cached answers survive the adds and are patched by the
// deletes all through the run.
func TestConcurrentHistoryNeverServesAnAckedDelete(t *testing.T) {
	const (
		workers = 8
		keys    = 24 // three per worker
		perKey  = 8
		lookupT = 5
		ops     = 1500
	)
	cl := cluster.New(4, stats.NewRNG(7))
	cfgs := []wire.Config{{Scheme: wire.RoundRobin, Y: 2}, {Scheme: wire.Hash, Y: 2}}
	svc, err := core.NewService(cl.Caller(), core.WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	m := telemetry.NewProxyMetrics(telemetry.NewRegistry())
	// Room for half the keys: answers keep being evicted and probed anew,
	// some while the private entry is live, so deletes find it cached.
	p := proxy.New(svc, proxy.Options{CacheEntries: keys / 2, TTL: time.Hour, Metrics: m})
	ctx := context.Background()

	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("k%02d", k)
		entries := make([]string, perKey)
		for j := range entries {
			entries[j] = fmt.Sprintf("%s/%d", names[k], j)
		}
		if a := p.Handle(ctx, wire.Place{Key: names[k], Config: cfgs[k%2], Entries: entries}).(wire.Ack); a.Err != "" {
			t.Fatal(a.Err)
		}
	}
	priv := func(k int) string { return names[k] + "/x" }
	addStarts := make([]atomic.Int32, keys)
	delAcks := make([]atomic.Int32, keys)

	check := func(k int, entries []string, delsBefore int32) error {
		seen := make(map[string]bool, len(entries))
		for _, e := range entries {
			if !strings.HasPrefix(e, names[k]+"/") || seen[e] {
				return fmt.Errorf("entry %q is foreign to the key or repeated", e)
			}
			seen[e] = true
		}
		if len(entries) < lookupT {
			return fmt.Errorf("%d entries, want at least %d", len(entries), lookupT)
		}
		if seen[priv(k)] && addStarts[k].Load() <= delsBefore {
			return fmt.Errorf("holds %q, whose delete was acked before the lookup began", priv(k))
		}
		return nil
	}

	var wg sync.WaitGroup
	fails := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := stats.NewRNG(uint64(1000 + w))
			present := make(map[int]bool) // this worker's keys only
			for i := 0; i < ops; i++ {
				if rng.Float64() < 0.7 {
					k := rng.IntN(keys)
					dels := delAcks[k].Load()
					r := p.Handle(ctx, wire.Lookup{Key: names[k], T: lookupT}).(wire.LookupReply)
					if r.Err != "" {
						fails <- fmt.Errorf("lookup %s: %s", names[k], r.Err)
						return
					}
					if err := check(k, r.Entries, dels); err != nil {
						fails <- fmt.Errorf("lookup %s = %v: %w", names[k], r.Entries, err)
						return
					}
					continue
				}
				k := rng.IntN(keys/workers)*workers + w
				var msg wire.Message = wire.Add{Key: names[k], Config: cfgs[k%2], Entry: priv(k)}
				if present[k] {
					msg = wire.Delete{Key: names[k], Config: cfgs[k%2], Entry: priv(k)}
				} else {
					addStarts[k].Add(1)
				}
				if a := p.Handle(ctx, msg).(wire.Ack); a.Err != "" {
					fails <- fmt.Errorf("%T %s: %s", msg, names[k], a.Err)
					return
				}
				if present[k] {
					delAcks[k].Add(1)
				}
				present[k] = !present[k]
			}
		}(w)
	}
	wg.Wait()
	close(fails)
	for err := range fails {
		t.Error(err)
	}
	// The history is only worth its name if the rules ran: answers were
	// served from the cache across updates, and deletes patched them.
	if m.CacheHits.Value() == 0 || m.AnswersPatched.Value() == 0 {
		t.Fatalf("cache hits %d, answers patched %d: the run never exercised the rules",
			m.CacheHits.Value(), m.AnswersPatched.Value())
	}
}
