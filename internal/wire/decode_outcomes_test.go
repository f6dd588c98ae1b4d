package wire

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"os"
	"strings"
	"testing"
)

// decodeSentinels are the only errors Decode may return, in the order
// the golden's columns list them.
var decodeSentinels = []struct {
	name string
	err  error
}{
	{"truncated", ErrTruncated},
	{"oversized", ErrOversized},
	{"unknown", ErrUnknown},
	{"trailing", ErrTrailing},
	{"badvarint", ErrBadVarint},
	{"badmessage", ErrBadMessage},
}

// decodeVariants is data, every strict prefix of it, every offset
// overwritten with each of six bytes that sit on the codec's edges (bool
// values, varint continuation, length bounds), and one trailing byte.
func decodeVariants(data []byte) [][]byte {
	out := [][]byte{data}
	for i := range data {
		out = append(out, data[:i])
	}
	for i := range data {
		for _, b := range []byte{0x00, 0x01, 0x02, 0x7f, 0x80, 0xff} {
			v := bytes.Clone(data)
			v[i] = b
			out = append(out, v)
		}
	}
	return append(out, append(bytes.Clone(data), 0))
}

// decodeOutcomes renders, one line per message type of allMessages, how
// many of its variants Decode accepted and how many it rejected with
// each sentinel, and a SHA-256 over every variant's outcome in order:
// the accepted message's %#v, or the sentinel's name.
func decodeOutcomes(t *testing.T) string {
	type tally struct {
		counts [7]int // accepted, then decodeSentinels' order
		sum    hash.Hash
	}
	var order []string
	tallies := map[string]*tally{}
	for _, msg := range allMessages() {
		name := fmt.Sprintf("%T", msg)
		tl := tallies[name]
		if tl == nil {
			tl = &tally{sum: sha256.New()}
			tallies[name] = tl
			order = append(order, name)
		}
		for _, v := range decodeVariants(Encode(msg)) {
			got, err := Decode(v)
			if err == nil {
				tl.counts[0]++
				fmt.Fprintf(tl.sum, "%#v\n", got)
				continue
			}
			col := 0
			for i, s := range decodeSentinels {
				if errors.Is(err, s.err) {
					col = i + 1
					fmt.Fprintf(tl.sum, "%s\n", s.name)
					break
				}
			}
			if col == 0 {
				t.Fatalf("Decode(%x) of a %s variant: %v is none of the codec's sentinels", v, name, err)
			}
			tl.counts[col]++
		}
	}
	var b strings.Builder
	for _, name := range order {
		tl := tallies[name]
		fmt.Fprintf(&b, "%s accepted=%d", name, tl.counts[0])
		for i, s := range decodeSentinels {
			fmt.Fprintf(&b, " %s=%d", s.name, tl.counts[i+1])
		}
		fmt.Fprintf(&b, " sha256=%x\n", tl.sum.Sum(nil))
	}
	return b.String()
}

// TestDecodeOutcomesMatchParent: the golden is what the decoder with one
// error check per field read — the last commit before the sticky-error
// decoder — made of every variant: the same ones accepted as the same
// messages, the same sentinel for each rejection. WIRE_GEN_GOLDEN=1
// rewrites the golden from the code under test.
func TestDecodeOutcomesMatchParent(t *testing.T) {
	const golden = "testdata/golden-decode-outcomes.txt"
	got := decodeOutcomes(t)
	if os.Getenv("WIRE_GEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Errorf("outcomes differ from the parent's at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("outcomes differ from the parent's: %d lines, want %d", len(gl), len(wl))
	}
}
