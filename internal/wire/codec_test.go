package wire

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

// retiredRecords are messages of retired kinds, byte for byte as
// earlier versions wrote them: the two WAL records a place share was
// logged with, WalReset (a key and its config, WalConfig's layout) and
// WalStoreMany (a key and entries, RepairQuery's layout), and the
// CounterSync that mirrored Round-y counters to standby coordinators (a
// key, head and tail, WalCounters' layout). Their kind numbers stay
// reserved, so Decode refuses each as unknown, and recovery stops at
// one rather than misread it.
func retiredRecords() [][]byte {
	cfg := Config{Scheme: Hash, X: 3, Y: 7, Seed: 0xdeadbeef, RSReplace: true}
	retired := func(kind Kind, like Message) []byte {
		b := Encode(like)
		b[0] = byte(kind)
		return b
	}
	return [][]byte{
		retired(KindWalConfig-1, WalConfig{Key: "k", Config: cfg}),
		retired(KindWalStore+1, RepairQuery{Key: "k", Entries: []string{"v1", "v2"}}),
		retired(KindWalStore+1, RepairQuery{Key: "k"}),
		retired(KindRemoveAt+1, WalCounters{Key: "k", Head: 3, Tail: 9}),
	}
}

func TestRetiredRecordsAreUnknown(t *testing.T) {
	for _, b := range retiredRecords() {
		if msg, err := Decode(b); !errors.Is(err, ErrUnknown) {
			t.Errorf("Decode(%x) = %#v, %v; want ErrUnknown", b, msg, err)
		}
	}
}

// allMessages is a representative message of every kind, with all
// fields populated.
func allMessages() []Message {
	cfg := Config{Scheme: Hash, X: 3, Y: 7, Seed: 0xdeadbeef, RSReplace: true}
	return []Message{
		Place{Key: "song/abc", Config: cfg, Entries: []string{"v1", "v2", "v3"}},
		Add{Key: "k", Config: cfg, Entry: "10.0.0.1:99"},
		Delete{Key: "k", Config: cfg, Entry: "v"},
		Lookup{Key: "k", T: 35},
		StoreBatch{Key: "k", Config: cfg, Entries: []string{"a"}},
		StoreBatch{Key: "k", Config: cfg}, // nil entries
		StoreOne{Key: "k", Config: cfg, Entry: "v9"},
		RemoveOne{Key: "k", Config: cfg, Entry: "v9"},
		RoundRemove{Key: "k", Entry: "v3", HeadServer: 4, HeadPos: 12},
		RemoveAt{Key: "k", Entry: "v1", Pos: 8},
		StoreOne{Key: "k", Config: cfg, Entry: "v9", Pos: 3},
		Migrate{Key: "k", Entry: "v3"},
		Dump{Key: "k"},
		Ping{},
		Ack{},
		Ack{Err: "boom"},
		LookupReply{Entries: []string{"x", "y"}, Err: ""},
		LookupReply{Err: "no such key"},
		MigrateReply{Replacement: "v1", Found: true},
		MigrateReply{Found: false, Err: "pending removal missing"},
		DumpReply{Entries: []string{"v1"}},
		PlaceBatch{Items: []Place{
			{Key: "a", Config: cfg, Entries: []string{"v1", "v2"}},
			{Key: "b", Config: cfg},
		}},
		AddBatch{Items: []Add{{Key: "a", Config: cfg, Entry: "v1"}, {Key: "b", Config: cfg, Entry: "v2"}}},
		LookupBatch{Items: []Lookup{{Key: "a", T: 5}, {Key: "b", T: 10}}},
		LookupBatch{},
		BatchAck{Errs: []string{"", "boom"}},
		BatchAck{Err: "envelope rejected"},
		LookupBatchReply{Replies: []LookupReply{{Entries: []string{"x"}}, {Err: "thin"}}},
		WalConfig{Key: "k", Config: cfg},
		WalStore{Key: "k", Entry: "v1", Pos: 7, HasPos: true},
		WalStore{Key: "k", Entry: "v1"},
		WalRemove{Key: "k", Entry: "v2"},
		WalCounters{Key: "k", Head: 3, Tail: 9},
		WalHCount{Key: "k", HCount: 42},
		SnapKey{
			Key: "k", Config: cfg,
			Entries: []string{"v1", "v2"}, Seqs: []uint64{4, 7}, NextSeq: 8,
			ExtKind: SnapExtRound, Head: 1, Tail: 5,
			PosEntries: []string{"v1", "v2"}, Positions: []uint64{1, 4},
		},
		SnapKey{Key: "k", Config: cfg, ExtKind: SnapExtRS, HCount: 17},
		SnapKey{Key: "k"},
		SnapKey{Key: "k", Config: cfg, Entries: []string{"v"}, Seqs: []uint64{0}, NextSeq: 1, ExtKind: SnapExtRS, HCount: 3},
		RepairQuery{Key: "k", Entries: []string{"v1", "v2"}},
		RepairQuery{Key: "k"},
		RepairQueryReply{Missing: []bool{true, false}, Len: 3, HCount: 9, LowPos: 4, EndPos: 11},
		RepairQueryReply{Err: "boom"},
		RepairPush{
			Key: "k", Config: cfg, Entries: []string{"v1", "v2"},
			Positions: []uint64{0, 3}, HasPos: true, HCount: 9,
		},
		RepairPush{Key: "k", Config: cfg, Entries: []string{"v1"}},
		RepairPushReply{Accepted: 2},
		RepairPushReply{Err: "not my partition"},
		Join{Addr: "10.0.0.7:7421"},
		Leave{Server: 3},
		MembershipUpdate{Epoch: 4, Leaving: -1, Addrs: []string{"a:1", "b:2", "c:3", "d:4", "e:5", "f:6"}},
		MembershipUpdate{Epoch: 5, Leaving: 2, Addrs: []string{"a:1", "b:2", "d:4", "e:5", "f:6"}},
		RepairPush{
			Key: "k", Config: cfg, Entries: []string{"v1", "v2"},
			Positions: []uint64{0, 3}, HasPos: true, HCount: 9,
			Epoch: 4, NewN: 6, Leaving: -1,
		},
		RepairPush{Key: "k", Config: cfg, Entries: []string{"v1"}, Epoch: 5, NewN: 5, Leaving: 2},
		// Appended, as every later kind must be: the checked-in fuzz
		// seeds are named by position in this list.
		StoreBatches{Items: []StoreBatch{
			{Key: "a", Config: cfg, Entries: []string{"v1", "v2"}},
			{Key: "b", Config: cfg},
		}},
	}
}

func TestCodecRoundTrip(t *testing.T) {
	for _, msg := range allMessages() {
		data := Encode(msg)
		got, err := Decode(data)
		if err != nil {
			t.Errorf("Decode(%T): %v", msg, err)
			continue
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("round trip %T: got %#v, want %#v", msg, got, msg)
		}
	}
}

func TestDecodeRejectsEmpty(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Decode(nil) = %v, want ErrTruncated", err)
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := Decode([]byte{0xFF}); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Decode(unknown) = %v, want ErrUnknown", err)
	}
	if _, err := Decode([]byte{0x00}); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Decode(kind 0) = %v, want ErrUnknown", err)
	}
}

// TestRetiredKindStaysUnknown: the byte between MembershipUpdate and
// StoreBatches belonged to the retired rebalance push. It stays
// reserved, so a peer still sending that kind is refused rather than
// misread as whatever a later kind might reuse the number for.
func TestRetiredKindStaysUnknown(t *testing.T) {
	const retired = 39
	if KindMembershipUpdate != retired-1 || KindStoreBatches != retired+1 {
		t.Fatalf("kinds renumbered: MembershipUpdate %d, StoreBatches %d", KindMembershipUpdate, KindStoreBatches)
	}
	push := Encode(RepairPush{Key: "k", Entries: []string{"v1"}, Epoch: 5, NewN: 5, Leaving: 2})
	push[0] = retired
	if _, err := Decode(push); !errors.Is(err, ErrUnknown) {
		t.Fatalf("Decode(retired kind) = %v, want ErrUnknown", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data := Encode(Ping{})
	data = append(data, 0x01)
	if _, err := Decode(data); !errors.Is(err, ErrTrailing) {
		t.Fatalf("Decode(trailing) = %v, want ErrTrailing", err)
	}
}

// TestDecodeEveryTruncation chops every valid encoding at every length
// and requires a clean error (never a panic, never silent success
// except at full length).
func TestDecodeEveryTruncation(t *testing.T) {
	for _, msg := range allMessages() {
		data := Encode(msg)
		for cut := 0; cut < len(data); cut++ {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Decode panicked on truncated %T at %d/%d: %v", msg, cut, len(data), r)
					}
				}()
				got, err := Decode(data[:cut])
				// A strict prefix may still decode successfully if the
				// truncated tail was itself a valid message (rare but
				// possible with zero-length fields); what must never
				// happen is a panic or an equal-but-shorter decode.
				if err == nil && reflect.DeepEqual(got, msg) && cut < len(data) {
					t.Fatalf("truncated %T decoded equal to original at %d/%d", msg, cut, len(data))
				}
			}()
		}
	}
}

func TestDecodeRejectsOversizedString(t *testing.T) {
	// Hand-craft a Dump whose key length claims 2^40.
	data := []byte{byte(KindDump), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01}
	if _, err := Decode(data); err == nil {
		t.Fatal("oversized string length accepted")
	}
}

func TestDecodeRejectsOversizedSlice(t *testing.T) {
	// LookupReply with an absurd entry count.
	data := []byte{byte(KindLookupReply), 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}
	if _, err := Decode(data); err == nil {
		t.Fatal("oversized slice length accepted")
	}
}

func TestDecodeRejectsBadBool(t *testing.T) {
	m := MigrateReply{Replacement: "r", Found: true}
	data := Encode(m)
	// The bool byte follows the 1-byte length + 1-byte "r" after the kind.
	data[3] = 2
	if _, err := Decode(data); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("bad bool byte: %v, want ErrBadMessage", err)
	}
}

func TestDecodeArbitraryBytesNeverPanics(t *testing.T) {
	check := func(data []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		Decode(data)
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecQuickRoundTrip property-tests the codec over random Place
// messages (the richest message shape).
func TestCodecQuickRoundTrip(t *testing.T) {
	check := func(key string, scheme uint8, x, y uint16, seed uint64, entries []string) bool {
		if len(key) > 1000 {
			key = key[:1000]
		}
		for i := range entries {
			if len(entries[i]) > 200 {
				entries[i] = entries[i][:200]
			}
		}
		if len(entries) > 100 {
			entries = entries[:100]
		}
		msg := Place{
			Key:     key,
			Config:  Config{Scheme: Scheme(scheme), X: int(x), Y: int(y), Seed: seed},
			Entries: entries,
		}
		got, err := Decode(Encode(msg))
		if err != nil {
			return false
		}
		want := msg
		if len(want.Entries) == 0 {
			want.Entries = nil // codec does not distinguish nil from empty
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeUnregisteredTypePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Encode of unregistered type did not panic")
		}
	}()
	Encode(fakeMessage{})
}

type fakeMessage struct{}

func (fakeMessage) Kind() Kind { return Kind(200) }
