package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/stats"
)

// Fixed run shape, identical for every workload (README "Sizes").
const (
	numServers    = 4
	entriesPerKey = 16
	lookupT       = 12
	placeBatch    = 64
	// streamLen ops are pre-generated per client; a client that runs
	// past the end wraps around, which stays deterministic.
	streamLen = 1 << 18
)

// workload is one traffic mix. Every workload carries both operation
// types so every end-to-end metric is defined on it; the minority type
// is kept small enough that the majority's layers still do the work.
type workload struct {
	name       string
	why        string
	keys       int
	zipfS      float64 // 0 = uniform
	updateFrac float64
	proxy      bool
	durable    bool
}

var workloads = []workload{
	{
		name: "read_direct_uniform", keys: 6000, updateFrac: 0.01,
		why: "99% lookups client->4 volatile nodes, uniform over 6000 keys (> 4096-key route cache): driver, selector, wire, transport, node read path; no proxy, no WAL",
	},
	{
		name: "read_proxy_zipf", keys: 6000, zipfS: 1.1, updateFrac: 0.01, proxy: true,
		why: "99% lookups through plsproxy (4096-entry cache, TTL 1s), Zipf(1.1) over 6000 keys (> cache): proxy cache and coalescing do the work, nodes little",
	},
	{
		name: "write_durable", keys: 2000, updateFrac: 0.95, durable: true,
		why: "95% acked Add/Delete client->4 durable nodes (WAL SyncBatch + snapshots), uniform over 2000 keys: WAL, group commit, node->node fan-out; proxy and read path idle",
	},
	{
		name: "mixed_proxy_durable", keys: 4000, zipfS: 1.1, updateFrac: 0.10, proxy: true, durable: true,
		why: "90/10 lookups/updates through plsproxy onto durable nodes, Zipf(1.1) over 4000 keys (fits cache): invalidate-after-ack beside hits, WAL commits beside reads",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func keyName(i int) string { return fmt.Sprintf("k%05d", i) }

// keyConfig splits keys by index parity: even keys Round-Robin-2, odd
// keys Hash-2, so both executor families are always on the path.
func keyConfig(i int) core.Config {
	if i%2 == 0 {
		return core.Config{Scheme: core.RoundRobin, Y: 2}
	}
	return core.Config{Scheme: core.Hash, Y: 2}
}

// classify is the core.Classifier form of keyConfig: the parity of a
// decimal key name is the parity of its last digit.
func classify(key string) (core.Config, bool) {
	if key == "" {
		return core.Config{}, false
	}
	return keyConfig(int(key[len(key)-1] - '0')), true
}

// baseEntry is the j-th preloaded entry of a key; privEntry is the one
// entry the key's owning client adds and deletes during the run.
func baseEntry(key string, j int) string { return fmt.Sprintf("%s/%02d", key, j) }
func privEntry(key string) string        { return key + "/xx" }

// op is one pre-generated operation: key index << 1 | isUpdate.
type op uint32

func (o op) key() int     { return int(o >> 1) }
func (o op) update() bool { return o&1 == 1 }

// ownedKey maps a key index onto the nearest key that client owns.
// Updates to a key come from its owner only, which keeps the
// correctness model exact under concurrency.
func ownedKey(idx, client, clients, keys int) int {
	j := idx - idx%clients + client
	if j >= keys {
		j -= clients
	}
	return j
}

// genStream generates one client's operation stream from the seed
// alone: same (workload, seed, client) gives the same stream.
func genStream(w workload, seed uint64, client, clients, n int) []op {
	rng := stats.NewRNG(seed*1000003 + uint64(client) + 1)
	var zipf *stats.Zipf
	var perm []int
	if w.zipfS > 0 {
		zipf = stats.NewZipf(w.keys, w.zipfS)
		// Which keys are hot depends on the seed, not on the client.
		perm = stats.NewRNG(seed).Perm(w.keys)
	}
	ops := make([]op, n)
	for i := range ops {
		update := rng.Float64() < w.updateFrac
		var idx int
		if zipf != nil {
			idx = perm[zipf.Sample(rng)-1]
		} else {
			idx = rng.IntN(w.keys)
		}
		if update {
			ops[i] = op(ownedKey(idx, client, clients, w.keys))<<1 | 1
		} else {
			ops[i] = op(idx) << 1
		}
	}
	return ops
}

// model is what the generator knows the service must answer. Base
// entries are never deleted; each key's private entry is toggled by its
// owner alone, so two counters per key decide whether a lookup may
// still see it.
type model struct {
	keys []string
	priv []string
	// addStarts[k] counts Adds of priv[k] begun, delAcks[k] Deletes
	// acknowledged. Add j+1 begins only after Delete j is acked.
	addStarts []atomic.Int32
	delAcks   []atomic.Int32
	// present and unknown are touched by the owning client only.
	present []bool
	unknown []bool
}

func newModel(keys int) *model {
	m := &model{
		keys:      make([]string, keys),
		priv:      make([]string, keys),
		addStarts: make([]atomic.Int32, keys),
		delAcks:   make([]atomic.Int32, keys),
		present:   make([]bool, keys),
		unknown:   make([]bool, keys),
	}
	for i := range m.keys {
		m.keys[i] = keyName(i)
		m.priv[i] = privEntry(m.keys[i])
	}
	return m
}

func (m *model) baseEntries(k int) []core.Entry {
	out := make([]core.Entry, entriesPerKey)
	for j := range out {
		out[j] = core.Entry(baseEntry(m.keys[k], j))
	}
	return out
}

// checkLookup verifies one answer for key k: at least t distinct
// entries, all from the key's universe, and the private entry only if
// an Add of it began after the last Delete acked before the lookup
// started (delsBefore = delAcks[k] read before the call).
func checkLookup[E ~string](m *model, k int, entries []E, delsBefore int32) bool {
	if len(entries) < lookupT {
		return false
	}
	key := m.keys[k]
	var seen uint32
	for _, e := range entries {
		if len(e) != len(key)+3 || string(e[:len(key)]) != key || e[len(key)] != '/' {
			return false
		}
		a, b := e[len(key)+1], e[len(key)+2]
		bit := uint32(1) << entriesPerKey
		if a != 'x' || b != 'x' {
			if a < '0' || a > '9' || b < '0' || b > '9' {
				return false
			}
			j := int(a-'0')*10 + int(b-'0')
			if j >= entriesPerKey {
				return false
			}
			bit = 1 << j
		}
		if seen&bit != 0 {
			return false
		}
		seen |= bit
	}
	if seen>>entriesPerKey == 1 && m.addStarts[k].Load() <= delsBefore {
		return false
	}
	return true
}
