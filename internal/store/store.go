// Package store owns all per-key server state for a lookup node: one
// key index (key → state) with copy-on-write entry-set snapshots for
// the read path.
//
// The paper's server is a per-key state machine (Secs. 5.2–5.5): no
// operation ever touches two keys' state, and keys are never deleted.
// The store exploits exactly that:
//
//   - The key index is one sync.Map, the map Go provides for entries
//     written once and read many times. Creating a key is one
//     amortized O(1) insert whatever the store holds. Get takes no
//     lock on go1.24's hash-trie sync.Map; the older read/dirty one
//     (go1.22, go1.23) locks for a new key until misses promote it.
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
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/entry"
	"repro/internal/wire"
)

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
// Executors use it to skip building records on volatile stores. A
// State built outside the store, such as a place share under
// construction, logs nothing.
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

	wal *WAL // the store's log; nil on volatile stores

	// Serial orders those of the key's operations that a strategy must
	// not overlap across peer calls; the store never takes it.
	Serial sync.Mutex
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
// before the key unlocks, so the log's order of a key's records matches
// application order exactly.
func (k *KeyState) Update(f func(*State)) {
	k.mu.Lock()
	f(&k.st)
	if len(k.st.recs) > 0 {
		if k.wal != nil {
			// An append fails only on a closed or failed log, which
			// fails every later Store.WaitDurable: no reply acks it.
			_, _ = k.wal.Append(0, k.st.recs...)
		}
		// Keep the array for the next update, but not the records in
		// it, and not the array a repair push grew to a record per
		// entry.
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

// Store is the per-key state store: one key index mapping each key to
// its *KeyState.
type Store struct {
	// keys maps key → *KeyState. Keys are written once and never
	// deleted (the paper has no key removal), the case sync.Map is
	// built for.
	keys sync.Map
	// wal, when set via AttachWAL, makes every key durable: mutations
	// logged through State.Log are appended to it.
	wal *WAL
	// keyCount tracks the total number of keys, so the node.keys gauge
	// needs no sweep.
	keyCount atomic.Int64
}

// New returns an empty store.
func New() *Store { return &Store{} }

// Get returns the state for key, or (nil, false) if the key is unknown.
func (s *Store) Get(key string) (*KeyState, bool) {
	v, ok := s.keys.Load(key)
	if !ok {
		return nil, false
	}
	return v.(*KeyState), true
}

// GetOrCreate returns the state for key, creating it on first sight
// with cfg. An existing key whose config was installed without a valid
// scheme (by an add or delete whose config is unset) adopts cfg — the
// same lazy config adoption the monolithic node performed. Strategy
// extension state is not created here; executors initialize Ext lazily
// inside their Update callbacks.
func (s *Store) GetOrCreate(key string, cfg wire.Config) *KeyState {
	v, ok := s.keys.Load(key)
	if !ok {
		// The key outlives the message that first named it, whose
		// strings all view one decoded buffer (wire.Decode).
		key = strings.Clone(key)
		fresh := &KeyState{
			st:  State{Key: key, Cfg: cfg, Set: entry.NewSet(0), logging: s.wal != nil},
			wal: s.wal,
		}
		if v, ok = s.keys.LoadOrStore(key, fresh); !ok {
			s.keyCount.Add(1)
			// A brand-new key's config would otherwise exist only in
			// memory; log it so replay can rebuild keys whose later
			// records (WalStore etc.) don't carry a config.
			if fresh.wal != nil && cfg.Scheme.Valid() {
				fresh.Update(func(st *State) {
					st.Log(wire.WalConfig{Key: key, Config: cfg})
				})
			}
			return fresh
		}
	}
	ks := v.(*KeyState)
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
// serves traffic (existing keys — e.g. ones replayed from the log —
// are rewired without locking out concurrent use).
func (s *Store) AttachWAL(w *WAL) {
	s.wal = w
	s.Range(func(_ string, ks *KeyState) bool {
		ks.mu.Lock()
		ks.wal = w
		ks.st.logging = true
		ks.mu.Unlock()
		return true
	})
}

// WaitDurable blocks until every record appended to the store's log
// so far is durable per its sync policy (under SyncBatch the caller
// commits the log itself if no commit has covered it yet), or returns
// why not: the log's sticky write error, or ErrWALClosed once Close
// has begun. A covered wait is three atomic loads. A node's request
// calls it once, after its last mutation and before its reply; on a
// volatile store it returns nil at once.
func (s *Store) WaitDurable() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.WaitDurable(0, s.wal.seq.Load())
}

// Stripes returns 1, all OpenWAL's stripes accepts. It and the stripe
// parameters of Append and WaitDurable remain only for bench/.
func Stripes() int { return 1 }

// Keys returns the number of keys the store holds state for.
func (s *Store) Keys() int { return int(s.keyCount.Load()) }

// EntryCount returns the total number of entries across all keys: the
// per-server storage gauge.
func (s *Store) EntryCount() int {
	total := 0
	s.Range(func(_ string, ks *KeyState) bool {
		total += ks.Len()
		return true
	})
	return total
}

// Range calls f for every key until f returns false. The iteration
// order is unspecified. f runs with no store lock held and may call
// Update/View/Snapshot (or create keys) freely; keys created while
// Range runs may or may not be visited.
func (s *Store) Range(f func(key string, ks *KeyState) bool) {
	s.keys.Range(func(k, v any) bool { return f(k.(string), v.(*KeyState)) })
}
