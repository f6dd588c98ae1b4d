package wire

import (
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the codec: it must never panic,
// and anything it accepts must re-encode/decode to the same message
// (round-trip stability).
func FuzzDecode(f *testing.F) {
	for _, msg := range allMessages() {
		f.Add(Encode(msg))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	for _, b := range retiredRecords() {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(msg)
		msg2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of accepted message failed: %v", err)
		}
		if !reflect.DeepEqual(msg, msg2) {
			t.Fatalf("round trip changed message: %#v vs %#v", msg, msg2)
		}
	})
}

// FuzzConfigRoundTrip fuzzes the config sub-codec through Place.
func FuzzConfigRoundTrip(f *testing.F) {
	f.Add(uint8(1), 0, 0, uint64(0), false, false)
	f.Add(uint8(5), 3, 7, uint64(1<<60), true, true)
	f.Fuzz(func(t *testing.T, scheme uint8, x, y int, seed uint64, rsReplace bool, zoneSpread bool) {
		// The codec deliberately rejects counts above MaxInt32
		// (ErrOversized), so keep fuzz inputs inside the valid domain.
		const maxInt32 = 1<<31 - 1
		if x < 0 || y < 0 || x > maxInt32 || y > maxInt32 {
			return
		}
		cfg := Config{Scheme: Scheme(scheme), X: x, Y: y, Seed: seed, RSReplace: rsReplace, ZoneSpread: zoneSpread}
		msg := Place{Key: "k", Config: cfg}
		got, err := Decode(Encode(msg))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.(Place).Config != cfg {
			t.Fatalf("config round trip: %+v vs %+v", got.(Place).Config, cfg)
		}
	})
}
