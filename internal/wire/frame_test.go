package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// frameSeed is one named frame body of the FuzzMuxFrame seed corpus.
type frameSeed struct {
	name string
	body []byte
}

// acceptedFrameSeeds are bodies that parse and whose payload decodes.
func acceptedFrameSeeds() []frameSeed {
	return []frameSeed{
		{"lookup", AppendFrameV2(nil, 7, Lookup{Key: "song/abc", T: 5})[4:]},
		{"maxid-lookupreply", AppendFrameV2(nil, ^uint64(0), LookupReply{Entries: []string{"v1", "v2", "v3"}})[4:]},
		{"min-ping", AppendFrameV2(nil, 99, Ping{})[4:]},
		{"storebatches", AppendFrameV2(nil, 3, StoreBatches{Items: []StoreBatch{
			{Key: "a", Config: Config{Scheme: RoundRobin, Y: 2}, Entries: []string{"v1", "v2"}},
			{Key: "b", Config: Config{Scheme: Hash, Y: 2, Seed: 7}},
		}})[4:]},
	}
}

// rejectedFrameSeeds are bodies from which no message may come out:
// the bare-payload layout of the retired frame v1, version skew, and
// every truncation of the header.
func rejectedFrameSeeds() []frameSeed {
	ping := AppendFrameV2(nil, 99, Ping{})[4:]
	nested := append(append([]byte{FrameV2Marker}, make([]byte, 8)...), AppendFrameV2(nil, 1, Ping{})[4:]...)
	seeds := []frameSeed{
		{"v1-lookup", Encode(Lookup{Key: "song/abc", T: 5})},
		{"v1-lookupreply", Encode(LookupReply{Entries: []string{"v1", "v2", "v3"}})},
		{"skew-nested-header", nested}, // parses; the payload opens with the marker, not a kind
		{"skew-unknown-byte", []byte{0xEE, 1, 2}},
		{"empty", nil},
	}
	for cut := 1; cut <= FrameV2Overhead; cut++ {
		seeds = append(seeds, frameSeed{fmt.Sprintf("trunc-header-%d", cut), ping[:cut]})
	}
	return seeds
}

// parseAndDecode is the read path of one frame body.
func parseAndDecode(body []byte) (FrameBody, Message, error) {
	fb, err := ParseFrameBody(body)
	if err != nil {
		return fb, nil, err
	}
	msg, err := Decode(fb.Payload)
	return fb, msg, err
}

// TestParseFrameBody pins the one layout: marker, request id, payload;
// a body opening with anything but the marker is a version error, never
// a misparse.
func TestParseFrameBody(t *testing.T) {
	payload := Encode(Lookup{Key: "k", T: 3})
	frame := AppendFrameV2(nil, 42, Lookup{Key: "k", T: 3})
	if n := binary.BigEndian.Uint32(frame[:4]); int(n) != len(frame)-4 {
		t.Fatalf("length prefix %d, body %d", n, len(frame)-4)
	}
	fb, err := ParseFrameBody(frame[4:])
	if err != nil || fb.ID != 42 || !bytes.Equal(fb.Payload, payload) {
		t.Fatalf("got %+v, %v", fb, err)
	}

	if _, err := ParseFrameBody(payload); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("bare payload (retired v1 layout): err = %v, want ErrFrameVersion", err)
	}
	if _, err := ParseFrameBody([]byte{0xEE, 1, 2}); !errors.Is(err, ErrFrameVersion) {
		t.Fatalf("unknown leading byte: err = %v, want ErrFrameVersion", err)
	}
	if _, err := ParseFrameBody(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty body: err = %v, want ErrTruncated", err)
	}
	for cut := 1; cut <= FrameV2Overhead; cut++ {
		if _, err := ParseFrameBody(frame[4 : 4+cut]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("body cut to %d bytes: err = %v, want ErrTruncated", cut, err)
		}
	}
	if _, err := ParseFrameBody(make([]byte, MaxFrameBody+1)); !errors.Is(err, ErrOversized) {
		t.Fatalf("body over MaxFrameBody: err = %v, want ErrOversized", err)
	}
}

// TestMinimumFrameRoundTrip round-trips the smallest frame there is:
// Ping encodes to its kind byte alone, so its body is one byte past the
// header, the frame closest to the truncation boundary.
func TestMinimumFrameRoundTrip(t *testing.T) {
	frame := AppendFrameV2(nil, 5, Ping{})
	if len(frame) != 4+FrameV2Overhead+1 {
		t.Fatalf("framed Ping is %d bytes, want %d", len(frame), 4+FrameV2Overhead+1)
	}
	fb, msg, err := parseAndDecode(frame[4:])
	if err != nil || fb.ID != 5 {
		t.Fatalf("got %+v, %v", fb, err)
	}
	if _, ok := msg.(Ping); !ok {
		t.Fatalf("round trip returned %T, want Ping", msg)
	}
}

// TestFrameSeedsClassify pins each checked-in FuzzMuxFrame seed to its
// side of the oracle.
func TestFrameSeedsClassify(t *testing.T) {
	for _, s := range acceptedFrameSeeds() {
		if _, _, err := parseAndDecode(s.body); err != nil {
			t.Errorf("%s: rejected: %v", s.name, err)
		}
	}
	for _, s := range rejectedFrameSeeds() {
		if _, msg, err := parseAndDecode(s.body); err == nil {
			t.Errorf("%s: yielded %#v, want an error", s.name, msg)
		}
	}
}

// FuzzMuxFrame throws arbitrary frame bodies at the parser: it must
// never panic, and a body is either rejected or — when its payload also
// decodes — re-frames through AppendFrameV2 to the same id and message
// (round-trip stability across the framing layer).
func FuzzMuxFrame(f *testing.F) {
	for _, msg := range allMessages() {
		f.Add(Encode(msg)) // retired v1 layout: must be rejected
		f.Add(AppendFrameV2(nil, 7, msg)[4:])
		f.Add(AppendFrameV2(nil, ^uint64(0), msg)[4:])
	}
	for _, s := range append(acceptedFrameSeeds(), rejectedFrameSeeds()...) {
		f.Add(s.body)
	}
	for _, b := range retiredRecords() {
		f.Add(b) // retired v1 layout
		f.Add(append(binary.BigEndian.AppendUint64([]byte{FrameV2Marker}, 7), b...))
		f.Add(append(binary.BigEndian.AppendUint64([]byte{FrameV2Marker}, ^uint64(0)), b...))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		fb, msg, err := parseAndDecode(body)
		if err != nil {
			return
		}
		if body[0] != FrameV2Marker {
			t.Fatalf("accepted a body opening with %#x", body[0])
		}
		// Non-canonical varints may re-encode shorter, so compare the
		// parsed meaning, not the bytes.
		fb2, msg2, err := parseAndDecode(AppendFrameV2(nil, fb.ID, msg)[4:])
		if err != nil {
			t.Fatalf("re-framed body rejected: %v", err)
		}
		if fb2.ID != fb.ID {
			t.Fatalf("re-framed id changed: %d vs %d", fb2.ID, fb.ID)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip changed message: %#v vs %#v", msg, msg2)
		}
	})
}
