package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// walSeedSegment builds a well-formed segment image for the fuzz seed
// corpus: header plus n valid frames.
func walSeedSegment(stripe int, n int) []byte {
	buf := make([]byte, walHeaderSize)
	copy(buf[:8], walMagic)
	binary.BigEndian.PutUint32(buf[8:12], uint32(stripe))
	binary.BigEndian.PutUint64(buf[12:20], 1)
	for i := 0; i < n; i++ {
		var rec wire.Message
		switch i % 4 {
		case 0:
			rec = wire.WalStore{Key: "k", Entry: "v", Pos: i, HasPos: true}
		case 1:
			rec = wire.WalRemove{Key: "k", Entry: "v"}
		case 2:
			rec = wire.WalCounters{Key: "k", Head: i, Tail: i + 3}
		default:
			rec = wire.WalConfig{Key: "k", Config: wire.Config{Scheme: wire.RoundRobin, X: 1, Y: 4}}
		}
		buf = appendFrame(buf, uint64(i+1), rec)
	}
	return buf
}

// FuzzWALReplay feeds arbitrary bytes to the segment replay path: it
// must never panic, and whatever records it yields must decode cleanly.
// The seed corpus covers a clean segment, a torn tail, a mid-file
// corruption, bad magic, and an empty file.
func FuzzWALReplay(f *testing.F) {
	clean := walSeedSegment(0, 6)
	f.Add(clean)
	f.Add(clean[:len(clean)-5])                  // torn final frame
	mid := append([]byte(nil), clean...)         // mid-file corruption
	mid[len(mid)/2] ^= 0xFF                      //
	f.Add(mid)                                   //
	f.Add([]byte("plswal99 not a real segment")) // wrong magic version
	f.Add([]byte{})                              // empty file
	f.Add(walSeedSegment(0, 0))                  // header only

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "s00-00000000000000000001.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		valid, invalid, err := replaySegmentFile(path, 0, func(seq uint64, msg wire.Message) error {
			if msg == nil {
				t.Fatal("replay yielded nil message")
			}
			return nil
		})
		if err != nil {
			return // unreadable / bad header: rejected cleanly
		}
		if valid < walHeaderSize || valid+invalid != int64(len(data)) {
			t.Fatalf("replay accounting: valid %d + invalid %d != %d", valid, invalid, len(data))
		}
	})
}

// FuzzSnapshotLoad feeds arbitrary bytes to the snapshot reader: it
// must never panic and must reject anything without a complete,
// CRC-clean footer-terminated frame sequence.
func FuzzSnapshotLoad(f *testing.F) {
	dir := f.TempDir()
	path, _, err := WriteSnapshot(dir, 1, func(w func(wire.SnapKey) error) error {
		return w(wire.SnapKey{
			Key: "k", Config: wire.Config{Scheme: wire.RandomServer, X: 2, Y: 5},
			LSN: 3, Entries: []string{"v1"}, Seqs: []uint64{0}, NextSeq: 1,
			ExtKind: wire.SnapExtRS, HCount: 1,
		})
	})
	if err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3]) // chopped footer
	f.Add([]byte(snapMagic))  // magic only
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		p := snapPath(dir, 1)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		// Structural invariants (entry/seq length match etc.) are the
		// recovery layer's job; here a clean parse or a clean rejection
		// are both fine — only a panic is a failure.
		_, _ = readSnapshot(p)
	})
}
