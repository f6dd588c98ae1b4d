package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// The write-ahead log. Every acknowledged mutation is appended as a
// CRC-checked, length-prefixed record before the ack leaves the node,
// so a crash loses at most unacknowledged work. A node keeps one log:
// appends frame records into one buffer under a short lock, in
// sequence order (each key appends under its key lock, so per-key
// record order matches application order), and commits write and
// fsync that buffer with the lock released. The log owns no goroutine:
// whoever needs a record durable commits (see SyncBatch).
//
// On-disk layout, under <data-dir>/wal/:
//
//	<firstseq>.wal
//
// Each segment starts with a 16-byte header (8-byte magic "plswal04",
// 8-byte big-endian first sequence number) followed by frames:
//
//	[4-byte payload length][4-byte CRC32-C][8-byte sequence][payload]
//
// The CRC covers the sequence and the payload, so a torn or corrupted
// record is detected whichever bytes were lost. Payloads are
// wire-encoded Wal* and SnapKey messages (see internal/wire), sharing
// the protocol codec's bounds checks and fuzz coverage. Sequence
// numbers strictly increase through the segments, which replay reads
// in order.

// walMagic identifies WAL segment files; the trailing digits version
// the format. Earlier versions wrote "plswal01" segments, a set per
// lock shard, "plswal02" segments, which log a place share as a reset
// and one record per kept entry, and "plswal03" segments, whose key
// configs carry a Round-y coordinator count.
const walMagic = "plswal04"

const (
	walDirName      = "wal"
	walHeaderSize   = 8 + 8
	walFrameHeader  = 4 + 4 + 8
	walMaxRecordLen = wire.MaxPayload
	// maxRetainedBuf bounds the append buffer kept across commits (the
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
	// frames records into the log's buffer, and a WaitDurable caller
	// that finds its record not yet durable writes and fsyncs the whole
	// buffer; every record that accumulated behind it shares that
	// fsync, and their waiters return without I/O. Records appended
	// while a commit runs wait for the next one. Durable against OS
	// crash and power loss, with at most SyncAlways's fsync count.
	SyncBatch SyncPolicy = iota
	// SyncAlways commits before Append returns, through the same path
	// (appends that arrive together share an fsync).
	SyncAlways
	// SyncNever writes records to the OS before Append returns but
	// fsyncs only at rotation and Close: durable against process crash
	// (kill -9) but not OS crash.
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

// WAL is a node's write-ahead log, rooted at a data directory. Open it
// with OpenWAL, recover existing records with Replay, then Start it for
// appending. All methods are safe for concurrent use once started.
//
// Under SyncBatch a record nobody waits for becomes durable at the next
// commit, at rotation (every checkpoint) or at Close; a record whose
// WaitDurable returned nil is durable, always.
type WAL struct {
	dir     string // the wal/ subdirectory
	policy  SyncPolicy
	metrics *telemetry.WALMetrics
	seq     atomic.Uint64         // last assigned sequence; 0 = none
	durable atomic.Uint64         // last sequence a successful commit covered
	sticky  atomic.Pointer[error] // first write/sync failure, or ErrWALClosed; poisons the log

	// The commit token (committing, below) admits one commit at a
	// time; Start, Rotate and Close take it too, so none of them swaps
	// the file under a commit. Its holder owns these fields.
	f     *os.File // active segment; nil before Start and after Close
	path  string
	first uint64 // first sequence the active segment may hold
	spare []byte // the buffer the last commit wrote, empty, for the next swap
	// commitHook, when set (tests only, see SetCommitHook), runs inside
	// each commit after it took the buffer and before it writes.
	commitHook func()

	// mu guards the fields below; nobody holds it across I/O.
	mu sync.Mutex
	// released is broadcast whenever the token is given back, so every
	// waiter a commit covered returns at once, and one of the others
	// takes the token for the next commit.
	released   sync.Cond
	committing bool   // the commit token is taken
	open       bool   // between Start and Close: Append accepts records
	buf        []byte // frames no commit has taken yet, in sequence order
}

// OpenWAL prepares a WAL under dir with the given policy. No segment
// file is opened yet: call Replay to recover what's on disk, then Start
// to begin appending. stripes must be 1, what Stripes returns; it
// remains only for the benchmark harness. metrics may be nil.
func OpenWAL(dir string, stripes int, policy SyncPolicy, metrics *telemetry.WALMetrics) (*WAL, error) {
	if stripes != Stripes() {
		return nil, fmt.Errorf("store: OpenWAL with %d stripes (the log is one per node: pass 1)", stripes)
	}
	if metrics == nil {
		metrics = &telemetry.WALMetrics{}
	}
	wdir := filepath.Join(dir, walDirName)
	if err := os.MkdirAll(wdir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create WAL dir: %w", err)
	}
	w := &WAL{dir: wdir, policy: policy, metrics: metrics}
	w.released.L = &w.mu
	return w, nil
}

// ReplayStats reports what a Replay pass found on disk.
type ReplayStats struct {
	// Segments and Records are the valid segment files and records read.
	Segments int
	Records  int
	// TruncatedBytes counts the bytes dropped from the first bad frame
	// on — a record that was torn (partially written) or failed its CRC
	// — to the end of the log, later segments included: a record is
	// only acknowledged once durable, so a torn tail is unacknowledged
	// work, and replaying past a gap would build state that misses
	// mutations.
	TruncatedBytes int64
	// TruncatedSegments counts files physically truncated to their valid
	// prefix, or removed because they followed the bad frame.
	TruncatedSegments int
}

// Replay reads the log in one ordered pass and calls fn for each
// record. The first torn or CRC-failed record ends the log: its segment
// is truncated before it and later segments are removed. A record that
// passes its CRC but does not decode was written whole, by another
// version or through a codec bug, so it is no torn tail: Replay fails,
// naming its segment and offset, and truncates nothing. Sequence
// numbering resumes past every replayed record and every segment's
// first sequence, so the next segment sorts after all of them.
// Replay must run before Start.
func (w *WAL) Replay(fn func(seq uint64, msg wire.Message) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := w.listSegments()
	if err != nil {
		return stats, err
	}
	maxSeq := w.seq.Load()
	for i, path := range segs {
		if first, _ := strconv.ParseUint(strings.TrimSuffix(filepath.Base(path), ".wal"), 10, 64); first > 0 {
			maxSeq = max(maxSeq, first-1)
		}
		valid, bad, err := replaySegmentFile(path, func(seq uint64, msg wire.Message) error {
			maxSeq = max(maxSeq, seq)
			stats.Records++
			return fn(seq, msg)
		})
		if err != nil {
			return stats, err
		}
		stats.Segments++
		if bad == 0 {
			continue
		}
		stats.TruncatedBytes += bad
		stats.TruncatedSegments++
		if err := os.Truncate(path, valid); err != nil {
			return stats, fmt.Errorf("store: truncate torn WAL %s: %w", path, err)
		}
		for _, later := range segs[i+1:] {
			if fi, err := os.Stat(later); err == nil {
				stats.TruncatedBytes += fi.Size()
			}
			if err := os.Remove(later); err != nil {
				return stats, fmt.Errorf("store: drop WAL segment past a bad record: %w", err)
			}
			stats.TruncatedSegments++
		}
		break
	}
	w.seq.Store(maxSeq)
	return stats, nil
}

// replaySegmentFile scans one segment, invoking fn per valid frame. It
// returns the byte offset of the valid prefix and how many trailing
// bytes are invalid (0 when the whole file parses). An unreadable or
// header-less file, one of another format version and a CRC-clean
// record that does not decode are reported as errors; torn and
// CRC-failed frames are data loss, not I/O errors, and are reported
// via the invalid-suffix length.
func replaySegmentFile(path string, fn func(seq uint64, msg wire.Message) error) (validEnd int64, invalid int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, fmt.Errorf("store: read WAL segment: %w", err)
	}
	if len(data) < walHeaderSize {
		return 0, 0, fmt.Errorf("store: %s: not a WAL segment", path)
	}
	if magic := string(data[:8]); magic != walMagic {
		return 0, 0, fmt.Errorf("store: %s has magic %q, this version reads %s (an older version's log must be retired first: see docs/OPERATIONS.md)", path, magic, walMagic)
	}
	off := int64(walHeaderSize)
	rest := data[walHeaderSize:]
	for len(rest) > 0 {
		seq, payload, n, ok := parseFrame(rest)
		if !ok {
			return off, int64(len(rest)), nil
		}
		msg, err := wire.Decode(payload)
		if err != nil {
			return off, 0, fmt.Errorf("store: %s: the record at offset %d passes its CRC but does not decode (%w); nothing was truncated: see docs/OPERATIONS.md", path, off, err)
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

// listSegments returns the segment files sorted by first sequence:
// ReadDir sorts by name, and the names are fixed-width numbers. Any
// other *.wal file — above all the s<NN>-<firstseq>.wal segments
// earlier versions wrote, a set per lock shard — is refused before
// anything is replayed: docs/OPERATIONS.md says how to upgrade.
func (w *WAL) listSegments() ([]string, error) {
	ents, err := os.ReadDir(w.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list WAL dir: %w", err)
	}
	var segs []string
	for _, e := range ents {
		base, ok := strings.CutSuffix(e.Name(), ".wal")
		if !ok {
			continue
		}
		path := filepath.Join(w.dir, e.Name())
		if _, err := strconv.ParseUint(base, 10, 64); err != nil || len(base) != 20 {
			return nil, fmt.Errorf("store: %s is not a segment of this WAL format (an older version's log must be retired first: see docs/OPERATIONS.md)", path)
		}
		segs = append(segs, path)
	}
	return segs, nil
}

// Start opens a fresh active segment after the highest replayed
// sequence. Appends are accepted once Start returns.
func (w *WAL) Start() error {
	w.takeToken(0)
	defer w.releaseToken()
	if err := w.openSegment(w.seq.Load() + 1); err != nil {
		return err
	}
	w.mu.Lock()
	w.open = true
	w.mu.Unlock()
	return syncDir(w.dir)
}

// openSegment creates and headers the active segment whose records
// start at first. Callers hold the commit token.
func (w *WAL) openSegment(first uint64) error {
	path := filepath.Join(w.dir, fmt.Sprintf("%020d.wal", first))
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
	binary.BigEndian.PutUint64(hdr[8:16], first)
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
	w.f, w.path, w.first = f, path, first
	return nil
}

// Append logs recs and returns the sequence of the last one. It holds
// only the buffer lock, never across I/O, unless the policy makes it
// commit: under SyncAlways the records are durable when Append
// returns, under SyncNever they are in the OS page cache, and under
// SyncBatch they sit framed in the buffer and callers pass the sequence
// to WaitDurable before acknowledging. Record order in the log follows
// Append order. The stripe argument is ignored; it remains for the
// benchmark harness, as Stripes does.
func (w *WAL) Append(stripe int, recs ...wire.Message) (uint64, error) {
	seq, err := w.buffer(recs)
	if err != nil || seq == 0 || w.policy == SyncBatch {
		return seq, err
	}
	return seq, w.commitTo(seq)
}

// buffer frames recs into the buffer under the buffer lock and returns
// the sequence of the last one (0 for none).
func (w *WAL) buffer(recs []wire.Message) (uint64, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	w.mu.Lock()
	if !w.open {
		w.mu.Unlock()
		return 0, ErrWALClosed
	}
	start := len(w.buf)
	var seq uint64
	for _, rec := range recs {
		seq = w.seq.Add(1)
		w.buf = appendFrame(w.buf, seq, rec)
	}
	payload := len(w.buf) - start - len(recs)*walFrameHeader
	w.mu.Unlock()
	w.metrics.Records.Add(int64(len(recs)))
	w.metrics.Bytes.Add(int64(payload))
	return seq, nil
}

// SetCommitHook has every later commit call f after it has taken the
// buffered records and before it writes them, so that a test in another
// package can hold a commit in flight. Call it before the log is
// shared with other goroutines.
func (w *WAL) SetCommitHook(f func()) { w.commitHook = f }

// WaitDurable blocks until the record with the given sequence is
// durable per the sync policy, returning the sticky error (see Err). Under
// SyncBatch the caller commits: if no earlier commit covered seq, it
// waits out the commit in flight, if any, and then writes and fsyncs
// everything buffered. Under SyncAlways and SyncNever Append already
// satisfied the policy, so this only surfaces errors. The stripe
// argument is ignored, as Append's is.
func (w *WAL) WaitDurable(stripe int, seq uint64) error {
	if seq == 0 || w.policy != SyncBatch {
		return w.Err()
	}
	return w.commitTo(seq)
}

// commitTo returns once a commit covered seq, running one itself if
// none has. A covered record costs two atomic loads and no I/O.
func (w *WAL) commitTo(seq uint64) error {
	if err := w.Err(); err != nil || w.durable.Load() >= seq {
		return err
	}
	if !w.takeToken(seq) {
		return w.Err()
	}
	defer w.releaseToken()
	_, err := w.commitLocked(w.policy != SyncNever)
	return err
}

// takeToken waits until no commit is under way and takes the commit
// token. Waiting to commit record seq (seq > 0), it gives up instead,
// returning false, once the commit under way covered seq or failed and
// poisoned the log.
func (w *WAL) takeToken(seq uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	settled := func() bool { return seq > 0 && (w.durable.Load() >= seq || w.Err() != nil) }
	for w.committing && !settled() {
		w.released.Wait()
	}
	if settled() {
		return false
	}
	w.committing = true
	return true
}

// releaseToken gives the commit token back and wakes every waiter.
func (w *WAL) releaseToken() {
	w.mu.Lock()
	w.committing = false
	w.released.Broadcast()
	w.mu.Unlock()
}

// poison records the first write failure, or the log's closing; later
// WaitDurable calls return it, so no ack can claim durability past a
// failing disk or a closed log.
func (w *WAL) poison(err error) {
	w.sticky.CompareAndSwap(nil, &err)
}

// Err returns the sticky write error, if any, or ErrWALClosed once
// Close has begun.
func (w *WAL) Err() error {
	if p := w.sticky.Load(); p != nil {
		return *p
	}
	return nil
}

// commitLocked takes every buffered frame, swapping in the spare
// buffer, then writes them to the active segment and fsyncs it if
// fsync is set, with the buffer lock released so appends go on
// meanwhile. It returns the last sequence it covered. A failed write or
// fsync poisons the log, so none of the taken records can be acked.
// Callers hold the commit token.
func (w *WAL) commitLocked(fsync bool) (uint64, error) {
	if w.f == nil {
		return 0, ErrWALClosed
	}
	w.mu.Lock()
	buf, upto := w.buf, w.seq.Load()
	w.buf, w.spare = w.spare, nil
	w.mu.Unlock()
	if w.commitHook != nil {
		w.commitHook()
	}
	_, err := w.f.Write(buf)
	if cap(buf) <= maxRetainedBuf {
		w.spare = buf[:0]
	}
	if t0 := time.Now(); err == nil && fsync {
		if err = w.f.Sync(); err == nil {
			w.metrics.Fsyncs.Inc()
			w.metrics.FsyncLatency.ObserveDuration(time.Since(t0))
		}
	}
	if err != nil {
		w.poison(err)
		return upto, err
	}
	w.durable.Store(upto)
	return upto, nil
}

// Rotate seals the active segment (committing it first) and opens a
// fresh one, after any commit in flight. A checkpoint rotates before it
// logs any key's state, so PruneSealed may delete the sealed segments
// once Checkpoint has made that state durable.
func (w *WAL) Rotate() error {
	w.takeToken(0)
	defer w.releaseToken()
	// A segment that holds no record yet is already fresh: sealing it
	// would recreate a file with the same first sequence.
	if w.f == nil || w.seq.Load() < w.first {
		return nil
	}
	upto, err := w.commitLocked(true)
	if err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("store: close sealed WAL segment: %w", err)
	}
	if err := w.openSegment(upto + 1); err != nil {
		return err
	}
	return syncDir(w.dir)
}

// Checkpoint runs emit with a log function that appends one record as
// Append does but never commits; then it commits and fsyncs everything
// appended, whatever the policy: one fsync for the whole checkpoint. It
// returns the active segment's size. emit may log with a key locked.
func (w *WAL) Checkpoint(emit func(log func(wire.Message) error) error) (int64, error) {
	err := emit(func(rec wire.Message) error {
		_, err := w.buffer([]wire.Message{rec})
		return err
	})
	if err != nil {
		return 0, err
	}
	w.takeToken(0)
	defer w.releaseToken()
	if err := w.Err(); err != nil {
		return 0, err
	}
	if _, err := w.commitLocked(true); err != nil {
		return 0, err
	}
	fi, err := w.f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: stat WAL segment: %w", err)
	}
	return fi.Size(), nil
}

// PruneSealed deletes every segment file but the active one. Call only
// after a checkpoint logged past the sealed segments is durable.
func (w *WAL) PruneSealed() error {
	w.takeToken(0)
	active := w.path
	w.releaseToken()
	segs, err := w.listSegments()
	if err != nil {
		return err
	}
	for _, path := range segs {
		if path == active {
			continue
		}
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("store: prune WAL segment: %w", err)
		}
	}
	return syncDir(w.dir)
}

// Close waits out any commit in flight, commits every pending record
// and closes the active segment: a record is either covered by Close or
// its Append fails with ErrWALClosed. From the start of Close every
// wait returns ErrWALClosed (unless the log failed before), so none
// acks a record Close refused. Safe to call twice.
func (w *WAL) Close() error {
	w.takeToken(0)
	defer w.releaseToken()
	w.poison(ErrWALClosed)
	w.mu.Lock()
	w.open = false
	w.mu.Unlock()
	if w.f == nil {
		return nil
	}
	_, err := w.commitLocked(true)
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
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
