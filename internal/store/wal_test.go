package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
	"repro/internal/wire"
)

// replayAll collects every record a Replay pass yields.
type replayed struct {
	seq uint64
	msg wire.Message
}

func replayAll(t *testing.T, w *WAL) ([]replayed, ReplayStats) {
	t.Helper()
	var out []replayed
	stats, err := w.Replay(func(seq uint64, msg wire.Message) error {
		out = append(out, replayed{seq, msg})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out, stats
}

// mustOpen opens the log under dir with its own metrics, which tests
// read through w.metrics.
func mustOpen(tb testing.TB, dir string, policy SyncPolicy) *WAL {
	tb.Helper()
	w, err := OpenWAL(dir, 1, policy, telemetry.NewWALMetrics(telemetry.NewRegistry()))
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

func mustStart(t *testing.T, w *WAL) {
	t.Helper()
	if _, err := w.Replay(func(uint64, wire.Message) error { return nil }); err != nil {
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
				wire.SnapKey{Key: "a", Config: wire.Config{Scheme: wire.Hash, Y: 2}, Entries: []string{"v1", "v2"}, Seqs: []uint64{0, 1}, NextSeq: 2},
				wire.WalStore{Key: "a", Entry: "v3", Pos: 7, HasPos: true},
				wire.WalRemove{Key: "a", Entry: "v1"},
				wire.WalCounters{Key: "a", Head: 1, Tail: 8},
				wire.WalHCount{Key: "a", HCount: 3},
			}
			var lastSeq uint64
			for i, rec := range recs {
				seq, err := w.Append(0, rec)
				if err != nil {
					t.Fatalf("Append(%d): %v", i, err)
				}
				if err := w.WaitDurable(0, seq); err != nil {
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
			if w2.seq.Load() != lastSeq {
				t.Fatalf("last sequence after replay = %d, want %d", w2.seq.Load(), lastSeq)
			}
			for i, rec := range recs {
				if !reflect.DeepEqual(got[i].msg, rec) {
					t.Errorf("record %d replayed as %#v, want %#v", i, got[i].msg, rec)
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

// TestWALReplayOrder: replay yields records in sequence order, across
// rotations.
func TestWALReplayOrder(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	for i := 0; i < 20; i++ {
		if _, err := w.Append(0, wire.WalStore{Key: "k", Entry: "stored"}); err != nil {
			t.Fatal(err)
		}
	}
	// Rotations must not disturb replay order.
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Append(0, wire.WalRemove{Key: "j", Entry: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	w2 := mustOpen(t, dir, SyncNever)
	got, stats := replayAll(t, w2)
	if len(got) != 40 || stats.Segments != 2 {
		t.Fatalf("replayed %d records from %d segments, want 40 from 2", len(got), stats.Segments)
	}
	for i, r := range got {
		if r.seq != uint64(i+1) {
			t.Fatalf("replayed record %d has seq %d, want %d", i, r.seq, i+1)
		}
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
		if _, err := w.Append(0, wire.WalStore{Key: "k", Entry: "v"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	path := onlySegment(t, dir)
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
// whichever key it belongs to.
func TestWALCRCCorruptionMidFile(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	for i := 0; i < 10; i++ {
		if _, err := w.Append(0, wire.WalStore{Key: "k", Entry: "victim"}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Append(0, wire.WalStore{Key: "other", Entry: "after"}); err != nil {
		t.Fatal(err)
	}
	w.Close()

	path := onlySegment(t, dir)
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
	if len(got) >= 10 || len(got) == 0 {
		t.Fatalf("replayed %d records, want 0 < n < 10 after mid-file corruption", len(got))
	}
	for _, r := range got {
		if r.msg.(wire.WalStore).Key != "k" {
			t.Fatalf("replayed %#v, which follows the damage", r.msg)
		}
	}
	if stats.TruncatedBytes == 0 {
		t.Fatalf("stats = %+v, want dropped bytes reported", stats)
	}
}

// TestWALCorruptionInvalidatesLaterSegments: damage in an older sealed
// segment must drop newer segments too — replaying past a gap would
// build state missing intermediate mutations — and removes them, so a
// later replay cannot pick them up behind a fresh segment.
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
	segs := segments(t, dir)
	if len(segs) != 2 {
		t.Fatalf("%d segments, want 2", len(segs))
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
	if stats.TruncatedBytes == 0 || stats.TruncatedSegments != 2 {
		t.Fatalf("stats = %+v, want dropped bytes from both segments", stats)
	}
	if left := segments(t, dir); len(left) != 1 || left[0] != segs[0] {
		t.Fatalf("segments after replay = %v, want only %s", left, segs[0])
	}
}

// ackedWriters runs writers goroutines, each appending and waiting
// until per records are acked or a call fails, and returns every
// sequence WaitDurable acked.
func ackedWriters(w *WAL, writers, per int) map[uint64]bool {
	var mu sync.Mutex
	acked := make(map[uint64]bool)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				seq, err := w.Append(0, wire.WalStore{Key: "k", Entry: "v"})
				if err == nil {
					err = w.WaitDurable(0, seq)
				}
				if err != nil {
					return
				}
				mu.Lock()
				acked[seq] = true
				mu.Unlock()
			}
		}()
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

// TestWALGroupCommitConcurrentAppends: the committers share one log.
// Under every policy each acked record survives a reopen, and no fsync
// was spent on nothing.
func TestWALGroupCommitConcurrentAppends(t *testing.T) {
	const writers, per = 8, 25
	for _, policy := range []SyncPolicy{SyncBatch, SyncAlways, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, dir, policy)
			mustStart(t, w)
			acked := ackedWriters(w, writers, per)
			if err := w.Err(); err != nil || len(acked) != writers*per {
				t.Fatalf("acked %d of %d records, Err = %v", len(acked), writers*per, err)
			}
			if f, r := w.metrics.Fsyncs.Value(), w.metrics.Records.Value(); f > r || (f == 0) != (policy == SyncNever) {
				t.Errorf("%d fsyncs for %d records under %s, want 1..records (none under never)", f, r, policy)
			}
			w.Close()
			if n := mustReplayAcked(t, dir, acked); n != writers*per {
				t.Fatalf("replayed %d records, want %d", n, writers*per)
			}
		})
	}
}

// TestWALCoveredWaiterDoesNoIO is the group commit itself: the first
// waiter commits everything the log has buffered, and the waiters it
// covered return without a write or an fsync of their own.
func TestWALCoveredWaiterDoesNoIO(t *testing.T) {
	w := mustOpen(t, t.TempDir(), SyncBatch)
	m := w.metrics
	mustStart(t, w)
	defer w.Close()
	var seqs []uint64
	for i := 0; i < 5; i++ {
		seq, err := w.Append(0, wire.WalStore{Key: "k", Entry: "v"})
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, seq)
	}
	if m.Fsyncs.Value() != 0 {
		t.Fatalf("%d fsyncs before anyone waited", m.Fsyncs.Value())
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		if err := w.WaitDurable(0, seqs[i]); err != nil {
			t.Fatal(err)
		}
		if got := m.Fsyncs.Value(); got != 1 {
			t.Fatalf("%d fsyncs after waiting on record %d, want 1", got, i)
		}
	}
}

// TestWALAppendDuringCommit pins the commit protocol, holding each
// commit inside its write until the test lets it go. A commit writes
// and fsyncs with the buffer lock released, so an Append on another key
// returns while a commit is held; that record, which the held commit
// did not take, is acked only after a later commit; and every waiter
// the held commit covered returns when it ends, not behind that later
// commit.
func TestWALAppendDuringCommit(t *testing.T) {
	w := mustOpen(t, t.TempDir(), SyncBatch)
	mustStart(t, w)
	defer w.Close()
	entered, gate := make(chan struct{}, 4), make(chan struct{})
	w.commitHook = func() { entered <- struct{}{}; <-gate }
	defer close(gate) // lets any later commit, Close's included, through
	var first uint64
	within := func(what string, c <-chan error) {
		t.Helper()
		select {
		case err := <-c:
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: still blocked", what)
		}
	}
	wait := func(seq uint64) <-chan error {
		c := make(chan error, 1)
		go func() { c <- w.WaitDurable(0, seq) }()
		return c
	}
	var covered []<-chan error // waiters the held commit covers
	coverFirst := func(n int) {
		for range n {
			covered = append(covered, wait(first))
			runtime.Gosched()
		}
	}

	var err error
	first, err = w.Append(0, wire.WalStore{Key: "k", Entry: "v"})
	if err != nil {
		t.Fatal(err)
	}
	firstDone := wait(first)
	<-entered
	appended := make(chan error, 1)
	var second uint64
	go func() {
		var err error
		second, err = w.Append(0, wire.WalStore{Key: "j", Entry: "w"})
		appended <- err
	}()
	within("Append on another key during a commit", appended)
	coverFirst(4)
	secondDone := wait(second)
	select {
	case err := <-secondDone:
		t.Fatalf("WaitDurable on a record the held commit did not take returned %v during that commit", err)
	case <-time.After(50 * time.Millisecond):
	}
	coverFirst(4)

	gate <- struct{}{} // the first commit ends; the second one starts
	<-entered
	within("the committing waiter, once its commit ended", firstDone)
	for _, c := range covered {
		within("a waiter the ended commit covered, during the next commit", c)
	}
	gate <- struct{}{}
	within("the waiter on the second record", secondDone)
	if got := w.metrics.Fsyncs.Value(); got != 2 {
		t.Fatalf("%d fsyncs, want 2: the held commit and a later one for the second record", got)
	}
}

// TestOpenWALTakesOneStripe: the stripes parameter survives only for
// the benchmark harness, and any value but Stripes() is refused.
func TestOpenWALTakesOneStripe(t *testing.T) {
	if _, err := OpenWAL(t.TempDir(), 64, SyncBatch, nil); err == nil {
		t.Fatal("OpenWAL accepted 64 stripes")
	}
	if Stripes() != 1 {
		t.Fatalf("Stripes() = %d, want 1", Stripes())
	}
}

// TestWALCommitFailurePoisons: a commit that cannot reach the disk is
// reported to the waiter that ran it and to every later waiter, on any
// key, also one appended after the failure — no ack past a failing disk.
func TestWALCommitFailurePoisons(t *testing.T) {
	w := mustOpen(t, t.TempDir(), SyncBatch)
	mustStart(t, w)
	defer w.Close()
	first, err := w.Append(0, wire.WalStore{Key: "k", Entry: "covered"})
	if err != nil {
		t.Fatal(err)
	}
	w.takeToken(0)
	w.f.Close() // the disk goes away
	w.releaseToken()
	second, err := w.Append(0, wire.WalStore{Key: "k", Entry: "same batch"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(0, second); err == nil {
		t.Fatal("the committing waiter was acked over a closed file")
	}
	if err := w.WaitDurable(0, first); err == nil {
		t.Fatal("a waiter the failed commit should have covered was acked")
	}
	later, err := w.Append(0, wire.WalStore{Key: "j", Entry: "elsewhere"})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(0, later); err == nil {
		t.Fatal("a later record on another key was acked by a poisoned log")
	}
	if w.Err() == nil {
		t.Fatal("Err is nil after a failed commit")
	}
}

// TestWALWaitDurableRacingClose: Close commits what is buffered as it
// closes the log, so a record is either covered by Close or refused; an
// ack never names a record the reopened log lacks.
func TestWALWaitDurableRacingClose(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncBatch)
	mustStart(t, w)
	done := make(chan map[uint64]bool)
	go func() { done <- ackedWriters(w, 8, 1<<30) }() // until Close stops them
	for w.seq.Load() < 200 {
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

// TestWALRotateConcurrentWithWaiters: rotation seals a segment behind
// the same commit lock a committing waiter holds, so no record falls
// between the sealed file and the fresh one.
func TestWALRotateConcurrentWithWaiters(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncBatch)
	mustStart(t, w)
	done := make(chan map[uint64]bool)
	go func() { done <- ackedWriters(w, 8, 100) }()
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

// TestWALCheckpointFsyncsOnce: under every policy, a checkpoint's
// records are durable when Checkpoint returns, after one fsync however
// many records it logged (SyncAlways would fsync each Append), and the
// size it reports is the active segment's.
func TestWALCheckpointFsyncsOnce(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncBatch, SyncNever} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			w := mustOpen(t, dir, policy)
			mustStart(t, w)
			defer w.Close()
			fsyncs := w.metrics.Fsyncs.Value()
			size, err := w.Checkpoint(func(log func(wire.Message) error) error {
				for i := 0; i < 3; i++ {
					if err := log(wire.SnapKey{Key: fmt.Sprint("k", i)}); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := w.metrics.Fsyncs.Value() - fsyncs; got != 1 || w.durable.Load() != 3 {
				t.Fatalf("Checkpoint: %d fsyncs, durable %d; want 1 fsync, durable 3", got, w.durable.Load())
			}
			fi, err := os.Stat(onlySegment(t, dir))
			if err != nil || fi.Size() != size {
				t.Fatalf("Checkpoint reported %d bytes, the segment holds %v (%v)", size, fi.Size(), err)
			}
		})
	}
}

// TestWALReplayResumesPastEmptySegment: a log whose only segment holds
// no record still numbers new records from that segment's start, so
// the next segment sorts after it.
func TestWALReplayResumesPastEmptySegment(t *testing.T) {
	dir := t.TempDir()
	w := mustOpen(t, dir, SyncNever)
	mustStart(t, w)
	for i := 0; i < 3; i++ {
		if _, err := w.Append(0, wire.WalStore{Key: "k", Entry: fmt.Sprint(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	if err := w.PruneSealed(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	w2 := mustOpen(t, dir, SyncNever)
	if got, _ := replayAll(t, w2); len(got) != 0 {
		t.Fatalf("replayed %d records from an empty segment", len(got))
	}
	if err := w2.Start(); err != nil {
		t.Fatal(err)
	}
	if seq, err := w2.Append(0, wire.WalStore{Key: "k", Entry: "after"}); err != nil || seq != 4 {
		t.Fatalf("first Append after the restart = %d,%v, want 4,nil", seq, err)
	}
	w2.Close()
	if segs := segments(t, dir); len(segs) != 1 {
		t.Fatalf("segments %v, want the one reopened", segs)
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

// onlySegment returns the log's single segment file.
func onlySegment(t *testing.T, dir string) string {
	t.Helper()
	segs := segments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	return segs[0]
}

// segments lists the log's segment files sorted by name (which sorts
// by first sequence, thanks to zero padding).
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, walDirName, "*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
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

// walCommitPer is how many logged updates each BenchmarkWALCommit
// writer applies and awaits per iteration.
const walCommitPer = 100

// BenchmarkWALCommit measures group commit on the disk under
// b.TempDir(): writers goroutines each apply and await walCommitPer
// logged updates on their own keys, the way a durable node's handlers
// do (Update logs, Store.WaitDurable acks). records/fsync is how many records
// one fsync covered; on a real disk 8 writers should reach 3 or more.
// The benchmark reports the figure and does not gate on it.
func BenchmarkWALCommit(b *testing.B) {
	for _, writers := range []int{1, 8} {
		b.Run(fmt.Sprintf("writers=%d", writers), func(b *testing.B) {
			w := mustOpen(b, b.TempDir(), SyncBatch)
			m := w.metrics
			if err := w.Start(); err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			s := New()
			s.AttachWAL(w)
			keys := make([]*KeyState, writers*walCommitPer)
			for i := range keys {
				keys[i] = s.GetOrCreate(fmt.Sprintf("key-%d", i), wire.Config{Scheme: wire.FullReplication})
			}
			records, fsyncs := m.Records.Value(), m.Fsyncs.Value()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for g := 0; g < writers; g++ {
					wg.Add(1)
					go func(mine []*KeyState) {
						defer wg.Done()
						for _, ks := range mine {
							ks.Update(func(st *State) { st.Log(wire.WalStore{Key: st.Key, Entry: "v"}) })
							if err := s.WaitDurable(); err != nil {
								b.Error(err)
								return
							}
						}
					}(keys[g*walCommitPer : (g+1)*walCommitPer])
				}
				wg.Wait()
			}
			b.StopTimer()
			records, fsyncs = m.Records.Value()-records, m.Fsyncs.Value()-fsyncs
			b.ReportMetric(float64(records)/float64(fsyncs), "records/fsync")
			b.ReportMetric(float64(records)/b.Elapsed().Seconds(), "records/s")
		})
	}
}
