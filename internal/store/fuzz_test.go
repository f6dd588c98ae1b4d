package store

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wire"
)

// walSeedSegment builds a well-formed segment image for the fuzz seed
// corpus: header plus n valid frames.
func walSeedSegment(n int) []byte {
	buf := make([]byte, walHeaderSize)
	copy(buf[:8], walMagic)
	binary.BigEndian.PutUint64(buf[8:16], 1)
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

// checkpointSegment builds a segment holding a checkpoint of n keys.
func checkpointSegment(n int) []byte {
	buf := make([]byte, walHeaderSize)
	copy(buf[:8], walMagic)
	binary.BigEndian.PutUint64(buf[8:16], 1)
	for i := 0; i < n; i++ {
		buf = appendFrame(buf, uint64(i+1), wire.SnapKey{
			Key: fmt.Sprintf("k%d", i), Config: wire.Config{Scheme: wire.RoundRobin, Y: 2},
			Entries: []string{"v"}, Seqs: []uint64{0}, NextSeq: 1,
			ExtKind: wire.SnapExtRound, Head: 1, Tail: 2, PosEntries: []string{"v"}, Positions: []uint64{1},
		})
	}
	return buf
}

// placeSegment builds a segment holding a key's creation, a place
// share (one SnapKey for the whole kept list) and an add on top.
func placeSegment() []byte {
	buf := make([]byte, walHeaderSize)
	copy(buf[:8], walMagic)
	binary.BigEndian.PutUint64(buf[8:16], 1)
	cfg := wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7}
	for i, rec := range []wire.Message{
		wire.WalConfig{Key: "k", Config: cfg},
		wire.SnapKey{Key: "k", Config: cfg, Entries: []string{"v2", "v5", "v7"}, Seqs: []uint64{0, 1, 2}, NextSeq: 3},
		wire.WalStore{Key: "k", Entry: "v9"},
	} {
		buf = appendFrame(buf, uint64(i+1), rec)
	}
	return buf
}

// FuzzWALReplay feeds arbitrary bytes to the segment replay path: it
// must never panic, and whatever records it yields must decode cleanly.
// The seed corpus covers a clean segment, a torn tail, a mid-file
// corruption, bad magic, an empty file, a checkpoint (a segment of
// SnapKey records) and a place share, whose SnapKey follows its key's
// creation and precedes an add.
func FuzzWALReplay(f *testing.F) {
	clean := walSeedSegment(6)
	f.Add(clean)
	f.Add(clean[:len(clean)-5])                  // torn final frame
	mid := append([]byte(nil), clean...)         // mid-file corruption
	mid[len(mid)/2] ^= 0xFF                      //
	f.Add(mid)                                   //
	f.Add([]byte("plswal99 not a real segment")) // wrong magic version
	f.Add([]byte{})                              // empty file
	f.Add(walSeedSegment(0))                     // header only
	f.Add(checkpointSegment(3))
	f.Add(placeSegment())

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "00000000000000000001.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		valid, invalid, err := replaySegmentFile(path, func(seq uint64, msg wire.Message) error {
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
