package node

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Durability wires a node's store to on-disk state: a striped WAL for
// every acknowledged mutation plus periodic compacting snapshots.
// Open it with OpenDurability before the node serves traffic.
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
	dataDir string
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
	// SnapshotGen is the generation loaded (0 = none found).
	SnapshotGen uint64
	// SnapshotKeys is how many keys the snapshot installed.
	SnapshotKeys int
	// Replayed and Skipped count WAL records applied vs. dropped
	// because the snapshot already covered them.
	Replayed int
	Skipped  int
	// WAL carries the low-level segment scan results, including torn
	// bytes truncated from segment tails.
	WAL store.ReplayStats
}

// OpenDurability recovers the node's state from dataDir and attaches a
// WAL so every subsequent acknowledged mutation is durable. Recovery
// loads the newest valid snapshot, replays the WAL tail past each
// key's snapshot cutoff (truncating any torn final record), takes a
// fresh compacting snapshot, and prunes now-covered log segments.
// snapInterval > 0 starts a background snapshotter; metrics may be nil.
func (n *Node) OpenDurability(dataDir string, policy store.SyncPolicy, snapInterval time.Duration, metrics *telemetry.WALMetrics) (*Durability, error) {
	if metrics == nil {
		metrics = &telemetry.WALMetrics{}
	}
	d := &Durability{n: n, dataDir: dataDir, metrics: metrics, stop: make(chan struct{})}

	// 1. Newest valid snapshot → full key states with replay cutoffs.
	gen, keys, err := store.LoadNewestSnapshot(dataDir)
	if err != nil {
		return nil, err
	}
	d.stats.SnapshotGen = gen
	d.stats.SnapshotKeys = len(keys)
	for _, sk := range keys {
		st, err := stateFromSnapKey(sk)
		if err != nil {
			return nil, fmt.Errorf("node: snapshot gen %d: %w", gen, err)
		}
		if _, err := n.store.Install(sk.Key, st, sk.LSN); err != nil {
			return nil, err
		}
	}

	// 2. WAL tail. The store has no WAL attached yet, so replayed
	// mutations are not re-logged.
	wal, err := store.OpenWAL(dataDir, store.Stripes(), policy, metrics)
	if err != nil {
		return nil, err
	}
	d.wal = wal
	d.stats.WAL, err = wal.Replay(func(stripe int, seq uint64, msg wire.Message) error {
		applied, err := n.applyWALRecord(seq, msg)
		if err != nil {
			return err
		}
		if applied {
			d.stats.Replayed++
		} else {
			d.stats.Skipped++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// 3. Go live: log future mutations, then collapse what we just
	// recovered into one fresh generation so the next restart skips the
	// replay work and old segments can be deleted.
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
			// A failed periodic snapshot is not fatal: the WAL still
			// holds everything. The next tick retries.
			_ = d.SnapshotNow()
		case <-d.stop:
			return
		}
	}
}

// SnapshotNow writes a compacting snapshot: rotate the WAL so sealed
// segments cover everything below the snapshot's view, persist every
// key's state, then prune sealed segments and stale generations.
// Concurrent mutations during the write are safe — they land in the
// active segments with sequences above the per-key cutoffs, so replay
// applies them on top of the snapshot.
func (d *Durability) SnapshotNow() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	start := time.Now()
	if err := d.wal.Rotate(); err != nil {
		return err
	}
	gen, err := store.NextSnapshotGen(d.dataDir)
	if err != nil {
		return err
	}
	_, size, err := store.WriteSnapshot(d.dataDir, gen, func(write func(wire.SnapKey) error) error {
		var werr error
		d.n.store.Range(func(key string, ks *store.KeyState) bool {
			var sk wire.SnapKey
			ks.SnapshotView(func(st *store.State, lsn uint64) {
				sk = snapKeyOf(key, st, lsn)
			})
			werr = write(sk)
			return werr == nil
		})
		return werr
	})
	if err != nil {
		return err
	}
	end := time.Now()
	d.metrics.Snapshots.Inc()
	d.metrics.SnapshotDuration.ObserveDuration(end.Sub(start))
	d.metrics.SnapshotBytes.Set(size)
	d.metrics.LastSnapshot.Set(end.UnixNano())
	if err := d.wal.PruneSealed(); err != nil {
		return err
	}
	return store.PruneSnapshots(d.dataDir, 2)
}

// Close takes a final snapshot, flushes the WAL, and closes it. Part
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

// applyWALRecord applies one replayed record to the store, reporting
// whether it was applied (false = at or below the key's snapshot
// cutoff). An entry record goes through the helper that logged it
// (wal_log.go): no WAL is attached during replay, so the helper only
// mutates, and the live and the recovered state cannot drift apart.
func (n *Node) applyWALRecord(seq uint64, msg wire.Message) (bool, error) {
	var key string
	var cfg wire.Config
	switch m := msg.(type) {
	case wire.WalConfig:
		key, cfg = m.Key, m.Config
	case wire.WalReset:
		key, cfg = m.Key, m.Config
	case wire.WalStore:
		key = m.Key
	case wire.WalStoreMany:
		key = m.Key
	case wire.WalRemove:
		key = m.Key
	case wire.WalCounters:
		key = m.Key
	case wire.WalHCount:
		key = m.Key
	default:
		return false, fmt.Errorf("node: unexpected %T in WAL", msg)
	}
	ks := n.store.GetOrCreate(key, cfg)
	if seq <= ks.LSN() {
		return false, nil
	}
	ks.Update(func(st *store.State) {
		switch m := msg.(type) {
		case wire.WalConfig:
			if !st.Cfg.Scheme.Valid() {
				st.Cfg = m.Config
			}
		case wire.WalReset:
			st.Cfg = m.Config
			st.Set.Clear()
			st.Ext = nil
		case wire.WalStore:
			if m.HasPos {
				logAddAt(st, m.Entry, m.Pos)
			} else {
				logAdd(st, m.Entry)
			}
		case wire.WalStoreMany:
			logAddMany(st, m.Entries)
		case wire.WalRemove:
			logRemove(st, m.Entry)
		case wire.WalCounters:
			ext := roundExtOf(st)
			ext.head, ext.tail = m.Head, m.Tail
		case wire.WalHCount:
			rsExtOf(st).hCount = m.HCount
		}
	})
	ks.SetLSN(seq)
	return true, nil
}

// snapKeyOf serializes one key's full state. Round-Robin positions are
// emitted sorted by entry so snapshot files are deterministic for a
// given state (loading order is irrelevant — it rebuilds a map — but
// stable files diff cleanly).
func snapKeyOf(key string, st *store.State, lsn uint64) wire.SnapKey {
	members, seqs, next := st.Set.Export()
	sk := wire.SnapKey{
		Key:     key,
		Config:  st.Cfg,
		LSN:     lsn,
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
// invariants so a corrupt-but-CRC-clean snapshot cannot install
// inconsistent state.
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
