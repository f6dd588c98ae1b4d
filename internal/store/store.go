// Package store owns all per-key server state for a lookup node: a
// sharded, striped-lock key→state map with copy-on-write entry-set
// snapshots for the read path.
//
// The paper's server is a per-key state machine (Secs. 5.2–5.5): no
// operation ever touches two keys' state. The store exploits exactly
// that independence, and its read path is epoch-based — a lookup takes
// no lock at all:
//
//   - Keys hash over a fixed array of shards. A shard publishes an
//     immutable settled key→state map behind an atomic.Pointer and keeps
//     the keys created since, under its mutex, in a young map it merges
//     into the next settled map geometrically. Creating a key is one
//     map insert whatever the store holds, and Get on a settled key is
//     one atomic load plus a map lookup, never a lock.
//   - Within a key, mutations run under the KeyState mutex, while
//     partial_lookup reads sample an immutable entry-set snapshot
//     published with one atomic load. Snapshots are cloned for
//     readers, not for writers: a mutation republishes a fresh clone
//     only if a reader consumed the previous one, and otherwise just
//     invalidates (one nil store — a run of writes with no lookup in
//     between pays no clone), leaving the next reader to rebuild under
//     the key lock. A key that is read between its writes therefore
//     never sends a reader to the key lock.
//
// Lookup-heavy workloads — the paper's whole premise — therefore pay
// the clone at most once per write, not once per read, and an idle key
// costs nothing.
//
// The store is strategy-agnostic: scheme-specific state (RandomServer
// counters, Round-Robin positions and migrations) lives behind the
// opaque Ext field, owned by the per-strategy executors in package node.
package store

import (
	"fmt"
	"maps"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/entry"
	"repro/internal/wire"
)

// numShards is the stripe width. A fixed power of two keeps the shard
// index a mask operation; 64 stripes keep the collision probability
// negligible for any realistic GOMAXPROCS without bloating an idle
// store (a shard is one mutex and two small maps).
const numShards = 64

// State is the mutable per-key view passed to Update and View
// callbacks. Callbacks must not retain the *State or any interior
// pointer past their return; the key lock is held only for the call.
type State struct {
	// Key is the key this state belongs to, fixed at creation. WAL
	// records carry it so replay can route them back.
	Key string
	// Cfg is the strategy configuration installed by the first
	// config-carrying message for the key.
	Cfg wire.Config
	// Set is the live local entry set. Mutating it outside Update is a
	// data race.
	Set *entry.Set
	// Ext holds strategy-owned extension state (e.g. the Round-Robin
	// coordinator counters); the store never inspects it.
	Ext any

	// recs accumulates WAL records logged during the current Update
	// callback; Update appends them to the log when the callback
	// returns. Empty when logging is off.
	recs []wire.Message
	// logging mirrors "this store has a WAL attached" so Log is a
	// no-op (not an allocation) on volatile stores.
	logging bool
}

// Log queues a WAL record describing a mutation the current Update
// callback performed. Records must describe outcomes (the entry chosen,
// the position assigned), never inputs whose effect depends on RNG
// state, so that replay reproduces state without consulting the RNG.
// Outside a durable store Log is a no-op.
func (st *State) Log(rec wire.Message) {
	if !st.logging {
		return
	}
	st.recs = append(st.recs, rec)
}

// Logging reports whether mutations on this key are being logged.
// Executors use it to skip building records on volatile stores.
func (st *State) Logging() bool { return st.logging }

// KeyState is one key's slot in the store: the live state under a
// per-key mutex, plus the copy-on-write snapshot for lock-free reads.
type KeyState struct {
	mu sync.Mutex
	st State
	// snap is the published read-only snapshot of st.Set, nil when a
	// mutation has invalidated it and no reader has demanded one since.
	// Readers treat a loaded snapshot as immutable.
	snap atomic.Pointer[entry.Set]
	// snapRead records that a reader consumed the published snapshot
	// since the last Update. Update clears it and republishes a fresh
	// clone if it was set, and only invalidates otherwise. Readers set
	// it only when it is clear, so the hot read path stays loads.
	snapRead atomic.Bool

	// Durability plumbing, nil/zero on volatile stores. stripe is the
	// shard index, which doubles as the WAL stripe so per-key record
	// order matches append order. lastLSN (under mu) is the global WAL
	// sequence of the key's most recent logged record; snapshots save
	// it and replay skips records at or below it. walErr (under mu) is
	// the first Append failure: the key's state has then moved past the
	// log, so WaitDurable returns it from there on.
	wal     *WAL
	stripe  int
	lastLSN uint64
	walErr  error
}

// maxKeptRecs bounds the record slice a key keeps between updates: an
// add or a delete logs one or two records.
const maxKeptRecs = 4

// Update runs f with the key locked and publishes the next read
// snapshot afterwards — a fresh clone when a reader consumed the
// previous one (so a key read between writes keeps its lookups
// lock-free), a cheap invalidation otherwise. All mutations — entry-set
// changes, config adoption, extension-state updates — go through here.
// Records the callback queued via State.Log are appended to the WAL
// before the key unlocks, so the log's per-stripe order matches
// application order exactly.
func (k *KeyState) Update(f func(*State)) {
	k.mu.Lock()
	f(&k.st)
	if len(k.st.recs) > 0 {
		if k.wal != nil {
			// WaitDurable surfaces a failed append before any ack, so
			// neither a failing disk nor a closed log acks writes.
			if seq, err := k.wal.Append(k.stripe, k.st.recs...); err == nil {
				k.lastLSN = seq
			} else if k.walErr == nil {
				k.walErr = err
			}
		}
		// Keep the array for the next update, but not the records in
		// it, and not the array a place grew to a record per entry.
		clear(k.st.recs)
		k.st.recs = k.st.recs[:0]
		if cap(k.st.recs) > maxKeptRecs {
			k.st.recs = nil
		}
	}
	if k.snapRead.Load() {
		k.snapRead.Store(false)
		k.snap.Store(k.st.Set.Clone())
	} else {
		k.snap.Store(nil)
	}
	k.mu.Unlock()
}

// View runs f with the key locked, without invalidating the snapshot.
// f must not mutate the state; use it for multi-field reads that need
// consistency (e.g. the Round-Robin head and tail together).
func (k *KeyState) View(f func(*State)) {
	k.mu.Lock()
	f(&k.st)
	k.mu.Unlock()
}

// SnapshotView runs f with the key locked, passing the state together
// with the WAL sequence of its last logged mutation. The snapshotter
// needs the pair observed atomically: a view newer than its recorded
// sequence would make replay re-apply mutations the snapshot already
// holds.
func (k *KeyState) SnapshotView(f func(st *State, lsn uint64)) {
	k.mu.Lock()
	f(&k.st, k.lastLSN)
	k.mu.Unlock()
}

// LSN returns the WAL sequence of the key's last logged mutation.
func (k *KeyState) LSN() uint64 {
	k.mu.Lock()
	lsn := k.lastLSN
	k.mu.Unlock()
	return lsn
}

// SetLSN records the WAL sequence of a replayed mutation during
// recovery, so post-recovery snapshots carry the right cutoff.
func (k *KeyState) SetLSN(lsn uint64) {
	k.mu.Lock()
	if lsn > k.lastLSN {
		k.lastLSN = lsn
	}
	k.mu.Unlock()
}

// WaitDurable blocks until the key's last logged mutation is durable
// per the WAL's sync policy (under SyncBatch the caller itself commits
// the key's stripe if nobody has yet), or returns why a mutation of the
// key could not be logged. Handlers call it between applying a mutation
// and acknowledging it; on a volatile store it returns nil immediately.
func (k *KeyState) WaitDurable() error {
	if k.wal == nil {
		return nil
	}
	k.mu.Lock()
	lsn, err := k.lastLSN, k.walErr
	k.mu.Unlock()
	if err != nil {
		return err
	}
	return k.wal.WaitDurable(k.stripe, lsn)
}

// Snapshot returns an immutable view of the key's entry set, building
// and publishing it if none is current, and marks it read so the next
// Update republishes instead of invalidating. While reads fall between
// the key's writes the path is two atomic loads; the first reader after
// a run of unread writes rebuilds under the key lock. Callers must not
// mutate the returned set.
func (k *KeyState) Snapshot() *entry.Set {
	s := k.snap.Load()
	if s == nil {
		k.mu.Lock()
		// Re-check under the lock: another reader may have republished.
		if s = k.snap.Load(); s == nil {
			s = k.st.Set.Clone()
			k.snap.Store(s)
		}
		k.mu.Unlock()
	}
	if !k.snapRead.Load() {
		k.snapRead.Store(true)
	}
	return s
}

// Config returns the key's current strategy configuration.
func (k *KeyState) Config() wire.Config {
	k.mu.Lock()
	cfg := k.st.Cfg
	k.mu.Unlock()
	return cfg
}

// Len returns the live entry-set size without cloning.
func (k *KeyState) Len() int {
	k.mu.Lock()
	n := k.st.Set.Len()
	k.mu.Unlock()
	return n
}

// shard holds one stripe's key→state map in two parts. settled is
// immutable once published: lookups load it with one atomic operation
// and index it without locking. young holds the keys created since the
// last merge, under mu, so creating a key is one map insert. A merge
// publishes settled ∪ young as the next settled map; it runs once the
// operations that had to take mu (creations, and lookups that found
// their key young) reach the size of settled, so its copy costs O(1)
// per such operation, and a young key that keeps being read settles.
// Keys are never deleted (the paper has none), so maps only grow.
type shard struct {
	settled atomic.Pointer[map[string]*KeyState]
	// nyoung is len(young), stored under mu, so a lookup that misses
	// settled skips the lock while nothing is young.
	nyoung atomic.Int64

	mu        sync.Mutex
	young     map[string]*KeyState
	lockedOps int // operations that took mu since the last merge
}

// loadSettled looks key up in the settled map, without locking.
func (sh *shard) loadSettled(key string) (*KeyState, bool) {
	ks, ok := (*sh.settled.Load())[key]
	return ks, ok
}

// getYoung is Get's path for a key that is not settled: it may be young.
func (sh *shard) getYoung(key string) (*KeyState, bool) {
	sh.mu.Lock()
	ks, ok := sh.findLocked(key)
	sh.tick()
	sh.mu.Unlock()
	return ks, ok
}

// findLocked looks key up in both maps. Callers hold sh.mu.
func (sh *shard) findLocked(key string) (*KeyState, bool) {
	if ks, ok := sh.young[key]; ok {
		return ks, true
	}
	return sh.loadSettled(key)
}

// addLocked inserts a new key. Callers hold sh.mu and have checked the
// key is absent.
func (sh *shard) addLocked(key string, ks *KeyState) {
	if sh.young == nil {
		sh.young = make(map[string]*KeyState)
	}
	sh.young[key] = ks
	sh.nyoung.Store(int64(len(sh.young)))
	sh.tick()
}

// tick counts one operation that took mu and merges once they reach
// the size of settled. Callers hold sh.mu.
func (sh *shard) tick() {
	sh.lockedOps++
	if sh.lockedOps >= len(*sh.settled.Load()) {
		sh.mergeLocked()
	}
}

// mergeLocked publishes settled ∪ young as the next settled map.
// Callers hold sh.mu.
func (sh *shard) mergeLocked() {
	sh.lockedOps = 0
	if len(sh.young) == 0 {
		return
	}
	cur := *sh.settled.Load()
	next := make(map[string]*KeyState, len(cur)+len(sh.young))
	maps.Copy(next, cur)
	maps.Copy(next, sh.young)
	sh.settled.Store(&next)
	sh.nyoung.Store(0)
	sh.young = nil
}

// all merges the shard and returns its whole key map, immutable, for
// iteration without the lock.
func (sh *shard) all() map[string]*KeyState {
	sh.mu.Lock()
	sh.mergeLocked()
	m := *sh.settled.Load()
	sh.mu.Unlock()
	return m
}

// Store is a sharded per-key state store. The zero value is not usable;
// call New.
type Store struct {
	shards [numShards]shard
	// wal, when set via AttachWAL, makes every key durable: mutations
	// logged through State.Log are appended to the key's stripe.
	wal *WAL
	// keyCount tracks the total number of keys across shards, so the
	// node.keys gauge needs no shard sweep.
	keyCount atomic.Int64
}

// New returns an empty store.
func New() *Store {
	s := &Store{}
	for i := range s.shards {
		empty := make(map[string]*KeyState)
		s.shards[i].settled.Store(&empty)
	}
	return s
}

// shardIndex hashes key to its shard (and WAL stripe). The hash is
// FNV-1a, chosen over a seeded maphash deliberately: the key→stripe
// mapping must be identical across process restarts so replay routes
// records back to the right stripe's keys.
func shardIndex(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h & (numShards - 1))
}

func (s *Store) shardFor(key string) *shard {
	return &s.shards[shardIndex(key)]
}

// Get returns the state for key, or (nil, false) if the key is unknown.
// For a settled key, and for an absent one while its shard has no young
// keys, it is lock-free: atomic loads and a lookup in the published map.
func (s *Store) Get(key string) (*KeyState, bool) {
	sh := s.shardFor(key)
	m := sh.settled.Load()
	if ks, ok := (*m)[key]; ok {
		return ks, true
	}
	// Absent, unless it is young or a merge settled it since m: a merge
	// publishes settled before it zeroes nyoung.
	if sh.nyoung.Load() == 0 && sh.settled.Load() == m {
		return nil, false
	}
	return sh.getYoung(key)
}

// GetOrCreate returns the state for key, creating it on first sight
// with cfg. An existing key whose config was installed without a valid
// scheme (e.g. by a bare CounterSync) adopts cfg — the same lazy config
// adoption the monolithic node performed. Strategy extension state is
// not created here; executors initialize Ext lazily inside their Update
// callbacks.
func (s *Store) GetOrCreate(key string, cfg wire.Config) *KeyState {
	idx := shardIndex(key)
	sh := &s.shards[idx]
	ks, ok := sh.loadSettled(key)
	if !ok {
		sh.mu.Lock()
		if ks, ok = sh.findLocked(key); ok {
			sh.tick()
		} else {
			// The key outlives the message that first named it, whose
			// strings all view one decoded buffer (wire.Decode).
			key = strings.Clone(key)
			ks = &KeyState{
				st:     State{Key: key, Cfg: cfg, Set: entry.NewSet(0), logging: s.wal != nil},
				wal:    s.wal,
				stripe: idx,
			}
			sh.addLocked(key, ks)
			s.keyCount.Add(1)
		}
		sh.mu.Unlock()
		if !ok {
			// A brand-new key's config would otherwise exist only in
			// memory; log it so replay can rebuild keys whose later
			// records (WalStore etc.) don't carry a config.
			if ks.wal != nil && cfg.Scheme.Valid() {
				ks.Update(func(st *State) {
					st.Log(wire.WalConfig{Key: key, Config: cfg})
				})
			}
			return ks
		}
	}
	// Adopt cfg only when the stored config is still schemeless, so the
	// common path costs one short lock and never invalidates snapshots.
	if cfg.Scheme.Valid() && !ks.Config().Scheme.Valid() {
		ks.Update(func(st *State) {
			if !st.Cfg.Scheme.Valid() {
				st.Cfg = cfg
				st.Log(wire.WalConfig{Key: key, Config: cfg})
			}
		})
	}
	return ks
}

// AttachWAL makes the store durable: every subsequent mutation logged
// via State.Log is appended to w. It must be called before the store
// serves traffic (existing keys — e.g. ones installed from a snapshot
// — are rewired without locking out concurrent use).
func (s *Store) AttachWAL(w *WAL) {
	s.wal = w
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.mergeLocked()
		for _, ks := range *sh.settled.Load() {
			ks.mu.Lock()
			ks.wal = w
			ks.stripe = i
			ks.st.logging = true
			ks.mu.Unlock()
		}
		sh.mu.Unlock()
	}
}

// Install creates a key with fully-formed state during recovery
// (snapshot load), recording lsn as its replay cutoff. It fails if the
// key already exists — duplicate keys in a snapshot indicate
// corruption the caller must surface, not merge.
func (s *Store) Install(key string, st State, lsn uint64) (*KeyState, error) {
	idx := shardIndex(key)
	sh := &s.shards[idx]
	st.Key = key
	st.logging = s.wal != nil
	ks := &KeyState{st: st, wal: s.wal, stripe: idx, lastLSN: lsn}
	sh.mu.Lock()
	if _, dup := sh.findLocked(key); dup {
		sh.mu.Unlock()
		return nil, fmt.Errorf("store: install of existing key %q", key)
	}
	sh.addLocked(key, ks)
	s.keyCount.Add(1)
	sh.mu.Unlock()
	return ks, nil
}

// Stripes returns the store's stripe count — the WAL must be opened
// with the same number.
func Stripes() int { return numShards }

// Keys returns the number of keys the store holds state for.
func (s *Store) Keys() int { return int(s.keyCount.Load()) }

// EntryCount returns the total number of entries across all keys: the
// per-server storage gauge.
func (s *Store) EntryCount() int {
	total := 0
	for i := range s.shards {
		for _, ks := range s.shards[i].all() {
			total += ks.Len()
		}
	}
	return total
}

// Range calls f for every key until f returns false. The iteration
// order is unspecified. Range merges each shard and iterates the map it
// publishes, which is immutable, so f runs with no lock held and may
// call Update/View/Snapshot (or create keys) freely; keys created while
// Range runs may or may not be visited.
func (s *Store) Range(f func(key string, ks *KeyState) bool) {
	for i := range s.shards {
		for k, ks := range s.shards[i].all() {
			if !f(k, ks) {
				return
			}
		}
	}
}
