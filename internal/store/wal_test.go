package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// replayAll collects every record a Replay pass yields.
type replayed struct {
	stripe int
	seq    uint64
	msg    wire.Message
}

func replayAll(t *testing.T, w *WAL) ([]replayed, ReplayStats) {
	t.Helper()
	var out []replayed
	stats, err := w.Replay(func(stripe int, seq uint64, msg wire.Message) error {
		out = append(out, replayed{stripe, seq, msg})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out, stats
}

func mustOpen(t *testing.T, dir string, policy SyncPolicy) *WAL {
	t.Helper()
	w, err := OpenWAL(dir, 4, policy, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustStart(t *testing.T, w *WAL) {
	t.Helper()
	if _, err := w.Replay(func(int, uint64, wire.Message) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, dir, policy)
			mustStart(t, w)
			recs := []wire.Message{
				wire.WalConfig{Key: "a", Config: wire.Config{Scheme: wire.RandomServer, X: 2, Y: 5}},
				wire.WalStoreMany{Key: "a", Entries: []string{"v1", "v2"}},
				wire.WalStore{Key: "a", Entry: "v3", Pos: 7, HasPos: true},
				wire.WalRemove{Key: "a", Entry: "v1"},
				wire.WalCounters{Key: "a", Head: 1, Tail: 8},
				wire.WalHCount{Key: "a", HCount: 3},
			}
			var lastSeq uint64
			for i, rec := range recs {
				seq, err := w.Append(i%4, rec)
				if err != nil {
					t.Fatalf("Append(%d): %v", i, err)
				}
				if err := w.WaitDurable(i%4, seq); err != nil {
					t.Fatalf("WaitDurable(%d): %v", i, err)
				}
				if seq <= lastSeq {
					t.Fatalf("sequence not increasing: %d after %d", seq, lastSeq)
				}
				lastSeq = seq
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}

			w2 := mustOpen(t, dir, policy)
			got, stats := replayAll(t, w2)
			if stats.Records != len(recs) || stats.TruncatedBytes != 0 {
				t.Fatalf("stats = %+v, want %d records, no truncation", stats, len(recs))
			}
			if w2.LastSeq() != lastSeq {
				t.Fatalf("LastSeq after replay = %d, want %d", w2.LastSeq(), lastSeq)
			}
			for i, rec := range recs {
				found := false
				for _, r := range got {
					if r.stripe == i%4 && reflect.DeepEqual(r.msg, rec) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("record %d (%T) not replayed on stripe %d", i, rec, i%4)
				}
			}
			// A fresh segment after replay continues the sequence.
			if err := w2.Start(); err != nil {
				t.Fatal(err)
			}
			seq, err := w2.Append(0, wire.WalRemove{Key: "a", Entry: "v2"})
			if err != nil || seq != lastSeq+1 {
				t.Fatalf("post-replay Append = %d,%v, want %d,nil", seq, err, lastSeq+1)
			}
			w2.Close()
		})
	}
}

func TestWALReplayOrderWithinStripe(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	for i := 0; i < 20; i++ {
		if _, err := w.Append(1, wire.WalStore{Key: "k", Entry: "stored"}); err != nil {
			t.Fatal(err)
		}
	}
	// Rotations must not disturb replay order.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Append(1, wire.WalRemove{Key: "k", Entry: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	w2 := mustOpen(t, dir, SyncNever)
	got, _ := replayAll(t, w2)
	var prev uint64
	for _, r := range got {
		if r.seq <= prev {
			t.Fatalf("out-of-order replay: seq %d after %d", r.seq, prev)
		}
		prev = r.seq
	}
	if len(got) != 40 {
		t.Fatalf("replayed %d records, want 40", len(got))
	}
}

// TestWALTornTailTruncated simulates a crash mid-append: the final
// record is half-written. Replay must drop it, truncate the file, and
// keep everything before it.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	for i := 0; i < 5; i++ {
		if _, err := w.Append(2, wire.WalStore{Key: "k", Entry: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	path := onlySegment(t, dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Chop the file mid-way through the final frame.
	torn := data[:len(data)-3]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, SyncNever)
	got, stats := replayAll(t, w2)
	if len(got) != 4 {
		t.Fatalf("replayed %d records after torn tail, want 4", len(got))
	}
	if stats.TruncatedSegments != 1 || stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want 1 truncated segment", stats)
	}
	// The file was physically truncated: a second replay sees a clean log.
	w3 := mustOpen(t, dir, SyncNever)
	got3, stats3 := replayAll(t, w3)
	if len(got3) != 4 || stats3.TruncatedSegments != 0 {
		t.Fatalf("second replay: %d records, stats %+v; want 4 records, no truncation", len(got3), stats3)
	}
}

// TestWALCRCCorruptionMidFile flips a byte in the middle of a segment:
// replay keeps records before the damage and drops everything after,
// on that stripe only.
func TestWALCRCCorruptionMidFile(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	for i := 0; i < 10; i++ {
		if _, err := w.Append(0, wire.WalStore{Key: "k", Entry: "victim"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Append(1, wire.WalStore{Key: "other", Entry: "survivor"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	path := onlySegment(t, dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte in roughly the middle of the file.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, SyncNever)
	got, stats := replayAll(t, w2)
	var stripe0, stripe1 int
	for _, r := range got {
		switch r.stripe {
		case 0:
			stripe0++
		case 1:
			stripe1++
		}
	}
	if stripe0 >= 10 || stripe0 == 0 {
		t.Fatalf("stripe 0 replayed %d records, want 0 < n < 10 after mid-file corruption", stripe0)
	}
	if stripe1 != 1 {
		t.Fatalf("stripe 1 replayed %d records, want 1 (unaffected by stripe 0 damage)", stripe1)
	}
	if stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want dropped bytes reported", stats)
	}
}

// TestWALCorruptionInvalidatesLaterSegments: damage in an older sealed
// segment must drop newer segments of the same stripe too — replaying
// past a gap would build state missing intermediate mutations.
func TestWALCorruptionInvalidatesLaterSegments(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	if _, err := w.Append(0, wire.WalStore{Key: "k", Entry: "old"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(0, wire.WalStore{Key: "k", Entry: "new"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	// Corrupt the first (sealed) segment's only record.
	segs := stripeSegments(t, dir, 0)
	if len(segs) != 2 {
		t.Fatalf("stripe 0 has %d segments, want 2", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2 := mustOpen(t, dir, SyncNever)
	got, stats := replayAll(t, w2)
	if len(got) != 0 {
		t.Fatalf("replayed %d records, want 0 (gap must not be skipped)", len(got))
	}
	if stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want dropped bytes from the later segment", stats)
	}
}

// ackedWriters runs writers goroutines, writer g on stripe g%stripes,
// each appending and waiting until per records are acked or a call
// fails, and returns every sequence WaitDurable acked.
func ackedWriters(w *WAL, writers, stripes, per int) map[uint64]bool {
	var mu sync.Mutex
	acked := make(map[uint64]bool)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(stripe int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := w.Append(stripe, wire.WalStore{Key: "k", Entry: "v"})
				if err == nil {
					err = w.WaitDurable(stripe, seq)
				}
				if err != nil {
					return
				}
				mu.Lock()
				acked[seq] = true
				mu.Unlock()
			}
		}(g % stripes)
	}
	wg.Wait()
	return acked
}

// mustReplayAcked reopens the log in dir and fails unless every acked
// sequence is replayed; it returns how many records the log holds.
func mustReplayAcked(t *testing.T, dir string, acked map[uint64]bool) int {
	t.Helper()
	got, _ := replayAll(t, mustOpen(t, dir, SyncBatch))
	onDisk := make(map[uint64]bool, len(got))
	for _, r := range got {
		onDisk[r.seq] = true
	}
	for seq := range acked {
		if !onDisk[seq] {
			t.Errorf("acked sequence %d missing after reopen", seq)
		}
	}
	return len(got)
}

// TestWALGroupCommitConcurrentAppends: the waiters commit. Whether the
// writers share one stripe or spread over all of them, every acked
// record survives a reopen and no fsync was spent on nothing.
func TestWALGroupCommitConcurrentAppends(t *testing.T) {
	const writers, per = 8, 25
	for _, stripes := range []int{1, 4} {
		t.Run(fmt.Sprintf("stripes=%d", stripes), func(t *testing.T) {
			dir := t.TempDir()
			m := telemetry.NewWALMetrics(telemetry.NewRegistry())
			w, err := OpenWAL(dir, 4, SyncBatch, m)
			if err != nil {
				t.Fatal(err)
			}
			mustStart(t, w)
			acked := ackedWriters(w, writers, stripes, per)
			if err := w.Err(); err != nil || len(acked) != writers*per {
				t.Fatalf("acked %d of %d records, Err = %v", len(acked), writers*per, err)
			}
			if f, r := m.Fsyncs.Value(), m.Records.Value(); f == 0 || f > r {
				t.Errorf("%d fsyncs for %d records, want 1..records", f, r)
			}
			w.Close()
			if n := mustReplayAcked(t, dir, acked); n != writers*per {
				t.Fatalf("replayed %d records, want %d", n, writers*per)
			}
		})
	}
}

// TestWALCoveredWaiterDoesNoIO is the group commit itself: the first
// waiter commits everything its stripe has buffered, and the waiters
// it covered return without a write or an fsync of their own.
func TestWALCoveredWaiterDoesNoIO(t *testing.T) {
	m := telemetry.NewWALMetrics(telemetry.NewRegistry())
	w, err := OpenWAL(t.TempDir(), 4, SyncBatch, m)
	if err != nil {
		t.Fatal(err)
	}
	mustStart(t, w)
	defer w.Close()
	var seqs []uint64
	for i := 0; i < 5; i++ {
		seq, err := w.Append(2, wire.WalStore{Key: "k", Entry: "v"})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if m.Fsyncs.Value() != 0 {
		t.Fatalf("%d fsyncs before anyone waited", m.Fsyncs.Value())
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		if err := w.WaitDurable(2, seqs[i]); err != nil {
			t.Fatal(err)
		}
		if got := m.Fsyncs.Value(); got != 1 {
			t.Fatalf("%d fsyncs after waiting on record %d, want 1", got, i)
		}
	}
}

// TestWALCommitFailurePoisons: a commit that cannot reach the disk is
// reported to the waiter that ran it and to every later waiter on any
// stripe — no ack past a failing disk.
func TestWALCommitFailurePoisons(t *testing.T) {
	w := mustOpen(t, t.TempDir(), SyncBatch)
	mustStart(t, w)
	defer w.Close()
	first, err := w.Append(1, wire.WalStore{Key: "k", Entry: "covered"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := w.Append(3, wire.WalStore{Key: "j", Entry: "elsewhere"})
	if err != nil {
		t.Fatal(err)
	}
	w.stripes[1].mu.Lock()
	w.stripes[1].f.Close() // the disk goes away under stripe 1
	w.stripes[1].mu.Unlock()
	second, err := w.Append(1, wire.WalStore{Key: "k", Entry: "same batch"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(1, second); err == nil {
		t.Fatal("the committing waiter was acked over a closed file")
	}
	if err := w.WaitDurable(1, first); err == nil {
		t.Fatal("a waiter the failed commit should have covered was acked")
	}
	if err := w.WaitDurable(3, other); err == nil {
		t.Fatal("a waiter on a healthy stripe was acked by a poisoned log")
	}
	if w.Err() == nil {
		t.Fatal("Err is nil after a failed commit")
	}
}

// TestWALWaitDurableRacingClose: Close commits each stripe as it closes
// it, so a record is either covered by Close or refused; an ack never
// names a record the reopened log lacks.
func TestWALWaitDurableRacingClose(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncBatch)
	mustStart(t, w)
	done := make(chan map[uint64]bool)
	go func() { done <- ackedWriters(w, 8, 4, 1<<30) }() // until Close stops them
	for w.LastSeq() < 200 {
		runtime.Gosched()
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	acked := <-done
	if len(acked) == 0 {
		t.Fatal("nothing was acked before Close")
	}
	mustReplayAcked(t, dir, acked)
}

// TestWALRotateConcurrentWithWaiters: rotation seals a segment under
// the same stripe lock a committing waiter holds, so no record falls
// between the sealed file and the fresh one.
func TestWALRotateConcurrentWithWaiters(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncBatch)
	mustStart(t, w)
	done := make(chan map[uint64]bool)
	go func() { done <- ackedWriters(w, 8, 4, 100) }()
	for i := 0; i < 20; i++ {
		if err := w.Rotate(); err != nil {
			t.Error(err)
		}
	}
	acked := <-done
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if len(acked) != 800 {
		t.Fatalf("acked %d records, want 800", len(acked))
	}
	if n := mustReplayAcked(t, dir, acked); n != 800 {
		t.Fatalf("replayed %d records, want 800", n)
	}
}

func TestWALPruneSealedKeepsActive(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	if _, err := w.Append(0, wire.WalStore{Key: "k", Entry: "sealed"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(0, wire.WalStore{Key: "k", Entry: "active"}); err != nil {
		t.Fatal(err)
	}
	if err := w.PruneSealed(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2 := mustOpen(t, dir, SyncNever)
	got, _ := replayAll(t, w2)
	if len(got) != 1 {
		t.Fatalf("replayed %d records after prune, want 1", len(got))
	}
	if ws, ok := got[0].msg.(wire.WalStore); !ok || ws.Entry != "active" {
		t.Fatalf("surviving record = %#v, want the active-segment one", got[0].msg)
	}
}

func TestWALAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncBatch)
	mustStart(t, w)
	w.Close()
	if _, err := w.Append(0, wire.WalStore{Key: "k", Entry: "v"}); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{{"always", SyncAlways}, {"batch", SyncBatch}, {"never", SyncNever}} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSyncPolicy(%q) = %v,%v, want %v", tc.in, got, err, tc.want)
		}
		if got.String() != tc.in {
			t.Errorf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("ParseSyncPolicy accepted garbage")
	}
}

// onlySegment returns the single segment file of a stripe.
func onlySegment(t *testing.T, dir string, stripe int) string {
	t.Helper()
	segs := stripeSegments(t, dir, stripe)
	if len(segs) != 1 {
		t.Fatalf("stripe %d has %d segments, want 1", stripe, len(segs))
	}
	return segs[0]
}

// stripeSegments lists a stripe's segment files sorted by name (which
// sorts by first sequence, thanks to zero padding).
func stripeSegments(t *testing.T, dir string, stripe int) []string {
	t.Helper()
	pattern := filepath.Join(dir, walDirName, "*.wal")
	all, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, p := range all {
		if strings.HasPrefix(filepath.Base(p), "s0"+string(rune('0'+stripe))+"-") {
			out = append(out, p)
		}
	}
	return out
}

func TestSnapshotWriteLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	keys := []wire.SnapKey{
		{Key: "a", Config: wire.Config{Scheme: wire.RandomServer, X: 2, Y: 5}, LSN: 10,
			Entries: []string{"v1", "v2"}, Seqs: []uint64{0, 1}, NextSeq: 2,
			ExtKind: wire.SnapExtRS, HCount: 4},
		{Key: "b", Config: wire.Config{Scheme: wire.RoundRobin, X: 1, Y: 3}, LSN: 12,
			Entries: []string{"w"}, Seqs: []uint64{5}, NextSeq: 6,
			ExtKind: wire.SnapExtRound, Head: 2, Tail: 7,
			PosEntries: []string{"w"}, Positions: []uint64{4}},
	}
	path, size, err := WriteSnapshot(dir, 1, func(write func(wire.SnapKey) error) error {
		for _, k := range keys {
			if err := write(k); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if size <= 0 {
		t.Fatalf("snapshot size = %d", size)
	}
	if filepath.Ext(path) != ".snap" {
		t.Fatalf("snapshot path = %q", path)
	}
	gen, got, err := LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || !reflect.DeepEqual(got, keys) {
		t.Fatalf("loaded gen %d keys %#v, want gen 1 %#v", gen, got, keys)
	}
}

func TestSnapshotEmptyIsValid(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := WriteSnapshot(dir, 3, func(func(wire.SnapKey) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	gen, keys, err := LoadNewestSnapshot(dir)
	if err != nil || gen != 3 || len(keys) != 0 {
		t.Fatalf("empty snapshot load = gen %d, %d keys, err %v", gen, len(keys), err)
	}
}

func TestSnapshotNoneOnDisk(t *testing.T) {
	gen, keys, err := LoadNewestSnapshot(t.TempDir())
	if err != nil || gen != 0 || keys != nil {
		t.Fatalf("LoadNewestSnapshot(empty dir) = %d,%v,%v; want 0,nil,nil", gen, keys, err)
	}
}

// TestSnapshotCorruptFallsBackToOlder: a damaged newest snapshot is
// skipped in favor of the previous generation.
func TestSnapshotCorruptFallsBackToOlder(t *testing.T) {
	dir := t.TempDir()
	old := wire.SnapKey{Key: "old", NextSeq: 0}
	if _, _, err := WriteSnapshot(dir, 1, func(w func(wire.SnapKey) error) error { return w(old) }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := WriteSnapshot(dir, 2, func(w func(wire.SnapKey) error) error {
		return w(wire.SnapKey{Key: "new"})
	}); err != nil {
		t.Fatal(err)
	}
	// Corrupt generation 2.
	path := snapPath(dir, 2)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	gen, keys, err := LoadNewestSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || len(keys) != 1 || keys[0].Key != "old" {
		t.Fatalf("fallback load = gen %d keys %v", gen, keys)
	}
}

// TestSnapshotMissingFooterRejected: a snapshot without its footer
// frame (incomplete write) must not load.
func TestSnapshotMissingFooterRejected(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := WriteSnapshot(dir, 1, func(w func(wire.SnapKey) error) error {
		return w(wire.SnapKey{Key: "k"})
	}); err != nil {
		t.Fatal(err)
	}
	path := snapPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Strip the footer frame: find its start by re-parsing.
	rest := data[snapHeaderSize:]
	var lastFrame int
	off := snapHeaderSize
	for len(rest) > 0 {
		_, _, n, ok := parseFrame(rest)
		if !ok {
			t.Fatal("snapshot failed to parse during test setup")
		}
		lastFrame = off
		off += n
		rest = rest[n:]
	}
	if err := os.WriteFile(path, data[:lastFrame], 0o644); err != nil {
		t.Fatal(err)
	}
	gen, keys, _ := LoadNewestSnapshot(dir)
	if gen != 0 || keys != nil {
		t.Fatalf("footerless snapshot loaded: gen %d keys %v", gen, keys)
	}
}

func TestSnapshotPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for gen := uint64(1); gen <= 4; gen++ {
		if _, _, err := WriteSnapshot(dir, gen, func(func(wire.SnapKey) error) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := PruneSnapshots(dir, 2); err != nil {
		t.Fatal(err)
	}
	gens, err := listSnapshots(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gens, []uint64{3, 4}) {
		t.Fatalf("generations after prune = %v, want [3 4]", gens)
	}
}

func TestNextSnapshotGen(t *testing.T) {
	dir := t.TempDir()
	gen, err := NextSnapshotGen(dir)
	if err != nil || gen != 1 {
		t.Fatalf("NextSnapshotGen(empty) = %d,%v, want 1,nil", gen, err)
	}
	if _, _, err := WriteSnapshot(dir, 7, func(func(wire.SnapKey) error) error { return nil }); err != nil {
		t.Fatal(err)
	}
	gen, err = NextSnapshotGen(dir)
	if err != nil || gen != 8 {
		t.Fatalf("NextSnapshotGen = %d,%v, want 8,nil", gen, err)
	}
}

// TestFrameRoundTrip exercises the frame codec directly, including the
// header layout constants.
func TestFrameRoundTrip(t *testing.T) {
	msg := wire.WalStore{Key: "hello", Entry: "frames"}
	payload := wire.Encode(msg)
	buf := appendFrame(nil, 42, msg)
	if len(buf) != walFrameHeader+len(payload) {
		t.Fatalf("frame length %d, want %d", len(buf), walFrameHeader+len(payload))
	}
	if got := binary.BigEndian.Uint32(buf[0:4]); got != uint32(len(payload)) {
		t.Fatalf("length field %d, want %d", got, len(payload))
	}
	seq, got, n, ok := parseFrame(buf)
	if !ok || seq != 42 || string(got) != string(payload) || n != len(buf) {
		t.Fatalf("parseFrame = %d,%q,%d,%v", seq, got, n, ok)
	}
	// Any single-byte flip must be caught: a shortened length field
	// yields a CRC computed over the wrong range, a lengthened one runs
	// past the buffer, and everything else breaks the checksum.
	for i := range buf {
		buf[i] ^= 1
		if _, _, _, ok := parseFrame(buf); ok {
			t.Fatalf("bit flip at %d undetected", i)
		}
		buf[i] ^= 1
	}
}
