package wire

import (
	"fmt"
	"testing"
)

// Allocation gates for the hot-path codec. These are hard build gates,
// not benchmarks: a change that re-introduces per-message allocations
// on the hottest kinds fails `go test` everywhere it runs (local, CI
// test job, race job). Budgets, per operation in steady state:
//
//   - AppendEncode into a with-capacity buffer: 0 allocations.
//   - Decode of Lookup: 2 (the arena copy and the interface box).
//   - Decode of LookupReply: 3 (arena, box, and the Entries slice —
//     never one per entry: the strings are views into the arena).
//
// The Decode ceiling below leaves one allocation of slack over the
// larger budget so the gate survives compiler-version wobble without
// ever letting a per-entry or per-string regression through
// (LookupReply with 16 entries would cost 19 without the arena views).

const decodeAllocCeiling = 4

func hotMessages() []Message {
	entries := make([]string, 16)
	for i := range entries {
		entries[i] = fmt.Sprintf("entry-%02d", i)
	}
	return []Message{
		Lookup{Key: "hot-key", T: 10},
		LookupReply{Entries: entries},
		Ack{},
		Add{Key: "hot-key", Config: Config{Scheme: RandomServer, X: 3}, Entry: "v-new"},
		StoreOne{Key: "hot-key", Config: Config{Scheme: RoundRobin, Y: 2}, Entry: "v-new", Pos: 7},
	}
}

// TestAppendEncodeZeroAllocs gates the encode half: re-encoding into a
// scratch buffer with capacity must not allocate at all.
func TestAppendEncodeZeroAllocs(t *testing.T) {
	for _, msg := range hotMessages() {
		msg := msg
		buf := make([]byte, 0, 1024)
		allocs := testing.AllocsPerRun(200, func() {
			buf = AppendEncode(buf[:0], msg)
		})
		if allocs > 0 {
			t.Errorf("AppendEncode(%T): %.1f allocs/op, want 0", msg, allocs)
		}
	}
}

// TestDecodeAllocCeiling gates the decode half for the request and the
// reply of the read path, through the one decoder the transport calls.
func TestDecodeAllocCeiling(t *testing.T) {
	for _, msg := range hotMessages()[:2] { // Lookup, LookupReply
		data := Encode(msg)
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := Decode(data); err != nil {
				t.Fatalf("Decode(%T): %v", msg, err)
			}
		})
		if allocs > decodeAllocCeiling {
			t.Errorf("Decode(%T): %.1f allocs/op, want <= %d", msg, allocs, decodeAllocCeiling)
		}
	}
}
