package node

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Durability wires a node's store to on-disk state: one WAL for every
// acknowledged mutation, into which periodic checkpoints log each key's
// whole state so the segments before them can be deleted. The log is
// the only thing on disk. Open it with OpenDurability before the node
// serves traffic.
//
// Recovery invariant: WAL records describe mutation outcomes (see
// wal_log.go), so replay rebuilds the exact pre-crash state — entry-set
// internal order, insertion sequences, Round-Robin positions and
// counters, RandomServer system counts — without consuming any RNG
// draws. A recovered node answers lookups byte-identically to one that
// never crashed, given the same seed and subsequent request stream.
// The one deliberately transient piece is the Round-Robin in-flight
// migration map: a crash mid-migration loses the pending hole-plug,
// which the paper's fault model already tolerates (entries on a failed
// server are lost anyway, Sec. 4.4).
type Durability struct {
	n       *Node
	wal     *store.WAL
	metrics *telemetry.WALMetrics
	stats   RecoveryStats

	mu       sync.Mutex // serializes SnapshotNow against Close
	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// RecoveryStats describes what OpenDurability found on disk.
type RecoveryStats struct {
	// KeyStates counts the wire.SnapKey records replayed (checkpoints'
	// and place shares') and Outcomes the outcome records on top.
	KeyStates int
	Outcomes  int
	// WAL carries the low-level segment scan results, including torn
	// bytes truncated from segment tails.
	WAL store.ReplayStats
}

// OpenDurability recovers the node's state from dataDir and attaches a
// WAL so every subsequent acknowledged mutation is durable. Recovery
// replays every segment in order (truncating the log at its first bad
// record), then checkpoints what it recovered, which prunes the
// replayed segments. A data dir holding the snapshot files of an
// earlier version is refused. snapInterval > 0 starts a background
// checkpointer; metrics may be nil.
func (n *Node) OpenDurability(dataDir string, policy store.SyncPolicy, snapInterval time.Duration, metrics *telemetry.WALMetrics) (*Durability, error) {
	if metrics == nil {
		metrics = &telemetry.WALMetrics{}
	}
	if old, _ := filepath.Glob(filepath.Join(dataDir, "snap-*.snap")); len(old) > 0 {
		return nil, fmt.Errorf("node: %s is a snapshot file of an earlier version (its data dir must be retired first: see docs/OPERATIONS.md)", old[0])
	}
	d := &Durability{n: n, metrics: metrics, stop: make(chan struct{})}
	wal, err := store.OpenWAL(dataDir, 1, policy, metrics)
	if err != nil {
		return nil, err
	}
	d.wal = wal
	// The store has no WAL attached yet, so replay re-logs nothing.
	d.stats.WAL, err = wal.Replay(func(_ uint64, msg wire.Message) error {
		if _, ok := msg.(wire.SnapKey); ok {
			d.stats.KeyStates++
		} else {
			d.stats.Outcomes++
		}
		return n.applyWALRecord(msg)
	})
	if err != nil {
		return nil, err
	}

	// Go live: log future mutations, then checkpoint what we just
	// recovered so the next restart replays less and old segments go.
	n.store.AttachWAL(wal)
	if err := wal.Start(); err != nil {
		return nil, err
	}
	if err := d.SnapshotNow(); err != nil {
		return nil, err
	}

	if snapInterval > 0 {
		d.wg.Add(1)
		go d.snapshotLoop(snapInterval)
	}
	return d, nil
}

// Stats returns what recovery found on disk.
func (d *Durability) Stats() RecoveryStats { return d.stats }

// WAL exposes the underlying log (tests and the bench harness).
func (d *Durability) WAL() *store.WAL { return d.wal }

func (d *Durability) snapshotLoop(interval time.Duration) {
	defer d.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			// A failed periodic checkpoint is not fatal: the WAL still
			// holds everything. The next tick retries.
			_ = d.SnapshotNow()
		case <-d.stop:
			return
		}
	}
}

// SnapshotNow checkpoints the log: it rotates the WAL, logs each key's
// whole state as a wire.SnapKey under that key's lock, fsyncs the
// checkpoint whatever the sync policy, and prunes the sealed segments.
// Each SnapKey follows every earlier record of its key, which it
// reflects, and precedes every later one, so mutations racing the
// checkpoint need no cutoff: replay applies them after it. A
// checkpoint cut short prunes nothing, and replay of its partial
// records is exact all the same.
func (d *Durability) SnapshotNow() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now()
	if err := d.wal.Rotate(); err != nil {
		return err
	}
	size, err := d.wal.Checkpoint(func(log func(wire.Message) error) error {
		var err error
		d.n.store.Range(func(key string, ks *store.KeyState) bool {
			ks.View(func(st *store.State) { err = log(snapKeyOf(key, st)) })
			return err == nil
		})
		return err
	})
	if err != nil {
		return err
	}
	end := time.Now()
	d.metrics.Snapshots.Inc()
	d.metrics.SnapshotDuration.ObserveDuration(end.Sub(start))
	d.metrics.SnapshotBytes.Set(size)
	d.metrics.LastSnapshot.Set(end.UnixNano())
	return d.wal.PruneSealed()
}

// Close takes a final checkpoint, flushes the WAL, and closes it. Part
// of the daemon's graceful shutdown; safe to call more than once.
func (d *Durability) Close() error {
	var err error
	d.stopOnce.Do(func() {
		close(d.stop)
		d.wg.Wait()
		err = d.SnapshotNow()
		if cerr := d.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	})
	return err
}

// applyWALRecord applies one replayed record to the store. A SnapKey
// replaces its key's state; an entry record goes through the helper
// that logged it (wal_log.go): no WAL is attached during replay, so the
// helper only mutates, and the live and the recovered state cannot
// drift apart.
func (n *Node) applyWALRecord(msg wire.Message) error {
	var key string
	var cfg wire.Config
	var snap store.State
	switch m := msg.(type) {
	case wire.SnapKey:
		var err error
		if snap, err = stateFromSnapKey(m); err != nil {
			return fmt.Errorf("node: checkpoint: %w", err)
		}
		key, cfg = m.Key, m.Config
	case wire.WalConfig:
		key, cfg = m.Key, m.Config
	case wire.WalStore:
		key = m.Key
	case wire.WalRemove:
		key = m.Key
	case wire.WalCounters:
		key = m.Key
	case wire.WalHCount:
		key = m.Key
	default:
		return fmt.Errorf("node: unexpected %T in WAL", msg)
	}
	n.store.GetOrCreate(key, cfg).Update(func(st *store.State) {
		switch m := msg.(type) {
		case wire.SnapKey:
			st.Cfg, st.Set, st.Ext = snap.Cfg, snap.Set, snap.Ext
		case wire.WalConfig:
			if !st.Cfg.Scheme.Valid() {
				st.Cfg = m.Config
			}
		case wire.WalStore:
			if m.HasPos {
				logAddAt(st, m.Entry, m.Pos)
			} else {
				logAdd(st, m.Entry)
			}
		case wire.WalRemove:
			logRemove(st, m.Entry)
		case wire.WalCounters:
			ext := roundExtOf(st)
			ext.head, ext.tail = m.Head, m.Tail
		case wire.WalHCount:
			rsExtOf(st).hCount = m.HCount
		}
	})
	return nil
}

// snapKeyOf serializes one key's full state. Round-Robin positions are
// emitted sorted by entry so a checkpoint record is deterministic for a
// given state (loading order is irrelevant — it rebuilds a map — but
// stable records diff cleanly).
func snapKeyOf(key string, st *store.State) wire.SnapKey {
	members, seqs, next := st.Set.Export()
	sk := wire.SnapKey{
		Key:     key,
		Config:  st.Cfg,
		Entries: members,
		Seqs:    seqs,
		NextSeq: next,
	}
	switch ext := st.Ext.(type) {
	case *roundExt:
		sk.ExtKind = wire.SnapExtRound
		sk.Head, sk.Tail = ext.head, ext.tail
		pe := make([]string, 0, len(ext.positions))
		for e := range ext.positions {
			pe = append(pe, e)
		}
		sort.Strings(pe)
		sk.PosEntries = pe
		sk.Positions = make([]uint64, len(pe))
		for i, e := range pe {
			sk.Positions[i] = uint64(ext.positions[e])
		}
	case *rsExt:
		sk.ExtKind = wire.SnapExtRS
		sk.HCount = ext.hCount
	}
	return sk
}

// stateFromSnapKey rebuilds a key's state, validating structural
// invariants so a corrupt-but-CRC-clean checkpoint record cannot
// install inconsistent state.
func stateFromSnapKey(sk wire.SnapKey) (store.State, error) {
	set, err := entry.RestoreSet(sk.Entries, sk.Seqs, sk.NextSeq)
	if err != nil {
		return store.State{}, fmt.Errorf("key %q: %w", sk.Key, err)
	}
	st := store.State{Cfg: sk.Config, Set: set}
	switch sk.ExtKind {
	case wire.SnapExtNone:
	case wire.SnapExtRound:
		if len(sk.PosEntries) != len(sk.Positions) {
			return store.State{}, fmt.Errorf("key %q: %d position entries but %d positions", sk.Key, len(sk.PosEntries), len(sk.Positions))
		}
		ext := &roundExt{
			head:      sk.Head,
			tail:      sk.Tail,
			positions: make(map[entry.Entry]int, len(sk.PosEntries)),
		}
		for i, e := range sk.PosEntries {
			ext.positions[e] = int(sk.Positions[i])
		}
		st.Ext = ext
	case wire.SnapExtRS:
		st.Ext = &rsExt{hCount: sk.HCount}
	default:
		return store.State{}, fmt.Errorf("key %q: unknown ext kind %d", sk.Key, sk.ExtKind)
	}
	return st, nil
}
