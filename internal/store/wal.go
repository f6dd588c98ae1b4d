package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The write-ahead log. Every acknowledged mutation is appended as a
// CRC-checked, length-prefixed record before the ack leaves the node,
// so a crash loses at most unacknowledged work. The log is striped:
// each store shard appends to its own segment files, so per-key record
// order matches application order (appends happen under the key lock)
// while unrelated keys never serialize on the log's in-memory state.
// The log owns no goroutine: whoever needs a record durable writes and
// fsyncs its stripe (see SyncBatch).
//
// On-disk layout, under <data-dir>/wal/:
//
//	s<stripe>-<firstseq>.wal
//
// Each segment starts with a 20-byte header (8-byte magic "plswal01",
// 4-byte big-endian stripe id, 8-byte first sequence number) followed
// by frames:
//
//	[4-byte payload length][4-byte CRC32-C][8-byte sequence][payload]
//
// The CRC covers the sequence and the payload, so a torn or corrupted
// record is detected whichever bytes were lost. Payloads are
// wire-encoded Wal* messages (see internal/wire), sharing the protocol
// codec's bounds checks and fuzz coverage.
//
// Sequence numbers are global across stripes and strictly increasing,
// which keeps snapshot replay cutoffs comparable even if a key's
// stripe assignment were ever to change between generations.

// walMagic identifies WAL segment files; the trailing digits version
// the format.
const walMagic = "plswal01"

// snapMagic identifies snapshot files (see snapshot.go).
const snapMagic = "plssnp01"

const (
	walDirName      = "wal"
	walHeaderSize   = 8 + 4 + 8
	walFrameHeader  = 4 + 4 + 8
	walMaxRecordLen = wire.MaxPayload
	// maxRetainedBuf bounds the stripe buffer kept across commits (the
	// transport's retention cap): one oversized batch is not pinned.
	maxRetainedBuf = 64 << 10
)

var walCRC = crc32.MakeTable(crc32.Castagnoli)

// WAL errors.
var (
	ErrWALClosed = errors.New("store: WAL closed")
)

// SyncPolicy selects when an appended record counts as durable.
type SyncPolicy uint8

const (
	// SyncBatch is group commit by the waiters themselves: Append
	// frames records into the stripe's buffer, and the first WaitDurable
	// caller that finds its record not yet durable writes and fsyncs
	// the whole buffer; every record that accumulated behind it shares
	// that fsync, and their waiters return without I/O. Durable against
	// OS crash and power loss, with at most SyncAlways's fsync count.
	SyncBatch SyncPolicy = iota
	// SyncAlways fsyncs inline on every append.
	SyncAlways
	// SyncNever writes records to the OS on every append but never
	// fsyncs: durable against process crash (kill -9) but not OS crash.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "batch":
		return SyncBatch, nil
	case "always":
		return SyncAlways, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("store: unknown fsync policy %q (want always, batch, or never)", s)
	}
}

// String returns the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncBatch:
		return "batch"
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", uint8(p))
	}
}

// WAL is a striped write-ahead log rooted at a data directory. Open it
// with OpenWAL, recover existing records with Replay, then Start it for
// appending. All methods are safe for concurrent use once started.
//
// Under SyncBatch a record nobody waits for becomes durable at the next
// commit of its stripe, at rotation (every snapshot) or at Close; a
// record whose WaitDurable returned nil is durable, always.
type WAL struct {
	dir     string // the wal/ subdirectory
	policy  SyncPolicy
	metrics *telemetry.WALMetrics
	stripes []*walStripe
	seq     atomic.Uint64         // last assigned global sequence; 0 = none
	sticky  atomic.Pointer[error] // first write/sync failure; poisons the log
}

type walStripe struct {
	id int

	mu      sync.Mutex
	f       *os.File // active segment; nil before Start and after Close
	path    string
	wrote   bool   // any record appended to the active segment
	buf     []byte // frames not yet written to f
	pending uint64 // last sequence appended
	synced  uint64 // last sequence written and fsynced
}

// OpenWAL prepares a WAL under dir with the given stripe count and
// policy. No segment files are opened yet: call Replay to recover
// what's on disk, then Start to begin appending. metrics may be nil.
func OpenWAL(dir string, stripes int, policy SyncPolicy, metrics *telemetry.WALMetrics) (*WAL, error) {
	if stripes <= 0 {
		return nil, fmt.Errorf("store: OpenWAL with %d stripes", stripes)
	}
	if metrics == nil {
		metrics = &telemetry.WALMetrics{}
	}
	wdir := filepath.Join(dir, walDirName)
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create WAL dir: %w", err)
	}
	w := &WAL{
		dir:     wdir,
		policy:  policy,
		metrics: metrics,
		stripes: make([]*walStripe, stripes),
	}
	for i := range w.stripes {
		w.stripes[i] = &walStripe{id: i}
	}
	return w, nil
}

// Policy returns the log's sync policy.
func (w *WAL) Policy() SyncPolicy { return w.policy }

// LastSeq returns the last assigned global sequence number (0 before
// any record, including replayed ones).
func (w *WAL) LastSeq() uint64 { return w.seq.Load() }

// ReplayStats reports what a Replay pass found on disk.
type ReplayStats struct {
	// Segments and Records are the valid segment files and records read.
	Segments int
	Records  int
	// TruncatedBytes counts bytes dropped from segment tails because a
	// record was torn (partially written) or failed its CRC. Everything
	// after the first bad frame of a stripe is dropped: a record is only
	// acknowledged once durable, so a torn tail is unacknowledged work.
	TruncatedBytes int64
	// TruncatedSegments counts files physically truncated to their valid
	// prefix.
	TruncatedSegments int
}

// Replay reads every segment on disk in sequence order and calls fn for
// each record. A torn or CRC-failed final record is truncated away; a
// corrupt record earlier in a stripe stops that stripe's replay there
// (later records of the stripe are dropped and counted). Replay must
// run before Start.
func (w *WAL) Replay(fn func(stripe int, seq uint64, msg wire.Message) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := w.listSegments()
	if err != nil {
		return stats, err
	}
	maxSeq := w.seq.Load()
	for stripe, files := range segs {
		stripeOK := true
		for _, path := range files {
			if !stripeOK {
				// A corrupt segment invalidates everything after it in
				// this stripe: count and drop the remainder.
				fi, statErr := os.Stat(path)
				if statErr == nil {
					stats.TruncatedBytes += fi.Size()
				}
				continue
			}
			valid, n, segErr := replaySegmentFile(path, stripe, func(seq uint64, msg wire.Message) error {
				if seq > maxSeq {
					maxSeq = seq
				}
				stats.Records++
				return fn(stripe, seq, msg)
			})
			if segErr != nil {
				return stats, segErr
			}
			stats.Segments++
			if n > 0 {
				// Invalid suffix: truncate the file to its valid prefix
				// so future replays see a clean log, and stop the stripe.
				stats.TruncatedBytes += n
				stats.TruncatedSegments++
				if err := os.Truncate(path, valid); err != nil {
					return stats, fmt.Errorf("store: truncate torn WAL %s: %w", path, err)
				}
				stripeOK = false
			}
		}
	}
	w.seq.Store(maxSeq)
	return stats, nil
}

// replaySegmentFile scans one segment, invoking fn per valid frame. It
// returns the byte offset of the valid prefix and how many trailing
// bytes are invalid (0 when the whole file parses). An unreadable or
// header-less file is reported as an error; malformed frames are data
// loss, not I/O errors, and are reported via the invalid-suffix length.
func replaySegmentFile(path string, stripe int, fn func(seq uint64, msg wire.Message) error) (validEnd int64, invalid int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("store: read WAL segment: %w", err)
	}
	if len(data) < walHeaderSize || string(data[:8]) != walMagic {
		return 0, 0, fmt.Errorf("store: %s: not a WAL segment", path)
	}
	if got := int(binary.BigEndian.Uint32(data[8:12])); got != stripe {
		return 0, 0, fmt.Errorf("store: %s: header stripe %d does not match filename stripe %d", path, got, stripe)
	}
	off := int64(walHeaderSize)
	rest := data[walHeaderSize:]
	for len(rest) > 0 {
		seq, payload, n, ok := parseFrame(rest)
		if !ok {
			return off, int64(len(rest)), nil
		}
		msg, decErr := wire.Decode(payload)
		if decErr != nil {
			return off, int64(len(rest)), nil
		}
		if err := fn(seq, msg); err != nil {
			return off, 0, err
		}
		off += int64(n)
		rest = rest[n:]
	}
	return off, 0, nil
}

// parseFrame reads one frame from the head of data. ok is false when
// the frame is torn, oversized, or fails its CRC.
func parseFrame(data []byte) (seq uint64, payload []byte, n int, ok bool) {
	if len(data) < walFrameHeader {
		return 0, nil, 0, false
	}
	plen := binary.BigEndian.Uint32(data[0:4])
	if plen == 0 || plen > walMaxRecordLen {
		return 0, nil, 0, false
	}
	n = walFrameHeader + int(plen)
	if len(data) < n {
		return 0, nil, 0, false
	}
	crc := binary.BigEndian.Uint32(data[4:8])
	if crc32.Checksum(data[8:n], walCRC) != crc {
		return 0, nil, 0, false
	}
	seq = binary.BigEndian.Uint64(data[8:16])
	return seq, data[16:n], n, true
}

// appendFrame encodes msg onto buf as one frame: the payload is encoded
// in place behind a blank header, which is then filled in.
func appendFrame(buf []byte, seq uint64, msg wire.Message) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, walFrameHeader)...)
	buf = wire.AppendEncode(buf, msg)
	frame := buf[start:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(frame)-walFrameHeader))
	binary.BigEndian.PutUint64(frame[8:16], seq)
	binary.BigEndian.PutUint32(frame[4:8], crc32.Checksum(frame[8:], walCRC))
	return buf
}

// listSegments returns each stripe's segment files sorted by first
// sequence number.
func (w *WAL) listSegments() (map[int][]string, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list WAL dir: %w", err)
	}
	type seg struct {
		first uint64
		path  string
	}
	byStripe := make(map[int][]seg)
	for _, e := range ents {
		name := e.Name()
		var stripe int
		var first uint64
		if _, err := fmt.Sscanf(name, "s%d-%d.wal", &stripe, &first); err != nil || !strings.HasSuffix(name, ".wal") {
			continue
		}
		byStripe[stripe] = append(byStripe[stripe], seg{first, filepath.Join(w.dir, name)})
	}
	out := make(map[int][]string, len(byStripe))
	for stripe, segs := range byStripe {
		sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
		paths := make([]string, len(segs))
		for i, s := range segs {
			paths[i] = s.path
		}
		out[stripe] = paths
	}
	return out, nil
}

// Start opens a fresh active segment per stripe (starting after the
// highest replayed sequence). Appends are accepted once Start returns.
func (w *WAL) Start() error {
	for _, s := range w.stripes {
		if err := w.openSegment(s); err != nil {
			return err
		}
	}
	return syncDir(w.dir)
}

// openSegment creates and headers a new active segment for s. Callers
// hold no stripe lock (Start) or the stripe lock (rotate).
func (w *WAL) openSegment(s *walStripe) error {
	first := w.seq.Load() + 1
	path := filepath.Join(w.dir, fmt.Sprintf("s%02d-%020d.wal", s.id, first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if os.IsExist(err) {
		// A crash between rotation and the first append leaves a
		// record-less segment with exactly this start sequence. It holds
		// nothing (any records in it would have advanced the replayed
		// sequence past `first`), so overwrite it — but verify that.
		if fi, serr := os.Stat(path); serr == nil && fi.Size() > walHeaderSize {
			return fmt.Errorf("store: segment %s exists with %d bytes but sequence says it is empty", path, fi.Size())
		}
		f, err = os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	}
	if err != nil {
		return fmt.Errorf("store: create WAL segment: %w", err)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(s.id))
	binary.BigEndian.PutUint64(hdr[12:20], first)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: write WAL header: %w", err)
	}
	if w.policy != SyncNever {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("store: sync WAL header: %w", err)
		}
	}
	s.f = f
	s.path = path
	return nil
}

// Append logs recs for a stripe and returns the global sequence of the
// last record. Under SyncAlways the records are durable when Append
// returns; under SyncBatch they sit framed in the stripe's buffer and
// callers pass the sequence to WaitDurable before acknowledging; under
// SyncNever the records are in the OS page cache. Record order within a
// stripe follows Append order.
func (w *WAL) Append(stripe int, recs ...wire.Message) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	s := w.stripes[stripe]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return 0, ErrWALClosed
	}
	start := len(s.buf)
	for _, rec := range recs {
		s.pending = w.seq.Add(1)
		s.buf = appendFrame(s.buf, s.pending, rec)
	}
	w.metrics.Records.Add(int64(len(recs)))
	w.metrics.Bytes.Add(int64(len(s.buf) - start - len(recs)*walFrameHeader))
	s.wrote = true
	switch w.policy {
	case SyncBatch:
		return s.pending, nil
	case SyncAlways:
		return s.pending, w.flushStripeLocked(s)
	default: // SyncNever
		return s.pending, w.writeStripeLocked(s)
	}
}

// WaitDurable blocks until the record with the given sequence on the
// given stripe is durable per the sync policy, returning any sticky
// write error. Under SyncBatch the caller commits: if no earlier
// caller's commit covered seq, it writes and fsyncs everything the
// stripe has buffered. Under SyncAlways and SyncNever Append already
// satisfied the policy, so this only surfaces errors.
func (w *WAL) WaitDurable(stripe int, seq uint64) error {
	if seq == 0 || w.policy != SyncBatch {
		return w.Err()
	}
	s := w.stripes[stripe]
	s.mu.Lock()
	defer s.mu.Unlock()
	// Checked under the stripe lock: a commit that failed to cover seq
	// poisoned the log before it released the stripe.
	if err := w.Err(); err != nil {
		return err
	}
	if s.synced >= seq {
		return nil
	}
	if s.f == nil {
		return ErrWALClosed
	}
	return w.flushStripeLocked(s)
}

// poison records the first write failure; later WaitDurable calls
// return it, so no ack can claim durability past a failing disk.
func (w *WAL) poison(err error) {
	w.sticky.CompareAndSwap(nil, &err)
}

// Err returns the sticky write error, if any.
func (w *WAL) Err() error {
	if p := w.sticky.Load(); p != nil {
		return *p
	}
	return nil
}

// writeStripeLocked hands the stripe's buffered frames to the OS. The
// buffer is emptied whatever the outcome (a failed write poisons the
// log, so its records can never be acked) and kept for the next commit
// unless one large batch grew it. Callers hold s.mu, which keeps
// rotation from closing the file under the write.
func (w *WAL) writeStripeLocked(s *walStripe) error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.f.Write(s.buf)
	s.buf = s.buf[:0]
	if cap(s.buf) > maxRetainedBuf {
		s.buf = nil
	}
	if err != nil {
		w.poison(err)
	}
	return err
}

// flushStripeLocked commits the stripe: it writes any buffered frames
// and fsyncs the active segment. Callers hold s.mu and have checked
// that the stripe is open.
func (w *WAL) flushStripeLocked(s *walStripe) error {
	if err := w.writeStripeLocked(s); err != nil {
		return err
	}
	t0 := time.Now()
	if err := s.f.Sync(); err != nil {
		w.poison(err)
		return err
	}
	w.metrics.Fsyncs.Inc()
	w.metrics.FsyncLatency.ObserveDuration(time.Since(t0))
	s.synced = s.pending
	return nil
}

// Rotate seals every stripe's active segment (flushing it first) and
// opens fresh ones. The snapshotter rotates before observing state, so
// everything the sealed segments hold is covered by the snapshot and
// PruneSealed may delete them once the snapshot is durable.
func (w *WAL) Rotate() error {
	for _, s := range w.stripes {
		s.mu.Lock()
		// An untouched active segment (header only) is already "fresh":
		// sealing it would recreate a file with the same start sequence.
		if !s.wrote || s.f == nil {
			s.mu.Unlock()
			continue
		}
		if err := w.flushStripeLocked(s); err != nil {
			s.mu.Unlock()
			return err
		}
		if err := s.f.Close(); err != nil {
			s.mu.Unlock()
			return fmt.Errorf("store: close sealed WAL segment: %w", err)
		}
		if err := w.openSegment(s); err != nil {
			s.mu.Unlock()
			return err
		}
		s.wrote = false
		s.mu.Unlock()
	}
	return syncDir(w.dir)
}

// PruneSealed deletes every segment file that is not a stripe's active
// segment. Call only after a snapshot covering the sealed segments is
// durable.
func (w *WAL) PruneSealed() error {
	active := make(map[string]bool, len(w.stripes))
	for _, s := range w.stripes {
		s.mu.Lock()
		if s.path != "" {
			active[s.path] = true
		}
		s.mu.Unlock()
	}
	segs, err := w.listSegments()
	if err != nil {
		return err
	}
	for _, files := range segs {
		for _, path := range files {
			if active[path] {
				continue
			}
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("store: prune WAL segment: %w", err)
			}
		}
	}
	return syncDir(w.dir)
}

// Close commits every stripe's pending records and closes the segment
// files, each under its stripe lock: a record is either covered by
// Close or its Append fails with ErrWALClosed. Safe to call twice.
func (w *WAL) Close() error {
	var err error
	for _, s := range w.stripes {
		s.mu.Lock()
		if s.f != nil {
			ferr := w.flushStripeLocked(s)
			if cerr := s.f.Close(); ferr == nil {
				ferr = cerr
			}
			s.f = nil
			if err == nil {
				err = ferr
			}
		}
		s.mu.Unlock()
	}
	return err
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir: %w", err)
	}
	return nil
}
