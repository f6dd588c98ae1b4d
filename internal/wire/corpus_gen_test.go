package wire

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// TestGenerateFuzzCorpus regenerates the checked-in seed corpus under
// testdata/fuzz/ from the codec itself, so CI fuzzing starts from every
// message kind the wire format can produce rather than from scratch.
// It is a generator, not a test: it only runs when WIRE_GEN_CORPUS=1
// is set, e.g.
//
//	WIRE_GEN_CORPUS=1 go test ./internal/wire -run TestGenerateFuzzCorpus
//
// The emitted files use the go-fuzz corpus encoding ("go test fuzz v1"
// plus one Go literal per fuzz argument); plain `go test` replays them
// as seeds, so a formatting mistake here fails the ordinary test run.
func TestGenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("WIRE_GEN_CORPUS") == "" {
		t.Skip("set WIRE_GEN_CORPUS=1 to regenerate the fuzz seed corpus")
	}

	writeSeed := func(dir, name string, lines ...string) {
		t.Helper()
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		body := "go test fuzz v1\n"
		for _, l := range lines {
			body += l + "\n"
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	decodeDir := filepath.Join("testdata", "fuzz", "FuzzDecode")
	for i, msg := range allMessages() {
		writeSeed(decodeDir, fmt.Sprintf("seed-%02d-%T", i, msg),
			fmt.Sprintf("[]byte(%s)", strconv.Quote(string(Encode(msg)))))
	}
	// Malformed inputs worth keeping near the decoder's edge cases: an
	// empty buffer, an unknown kind, and a truncated length prefix.
	writeSeed(decodeDir, "seed-empty", `[]byte("")`)
	writeSeed(decodeDir, "seed-bad-kind", fmt.Sprintf("[]byte(%s)", strconv.Quote("\xff\x00\x01")))
	writeSeed(decodeDir, "seed-truncated",
		fmt.Sprintf("[]byte(%s)", strconv.Quote(string(Encode(Place{Key: "k"}))[:3])))

	// FuzzMuxFrame: the accepted bodies, then the must-reject ones (the
	// retired v1 layout, version skew, truncated headers).
	muxDir := filepath.Join("testdata", "fuzz", "FuzzMuxFrame")
	if err := os.RemoveAll(muxDir); err != nil {
		t.Fatal(err)
	}
	for _, s := range acceptedFrameSeeds() {
		writeSeed(muxDir, "seed-accept-"+s.name, fmt.Sprintf("[]byte(%s)", strconv.Quote(string(s.body))))
	}
	for _, s := range rejectedFrameSeeds() {
		writeSeed(muxDir, "seed-reject-"+s.name, fmt.Sprintf("[]byte(%s)", strconv.Quote(string(s.body))))
	}

	configDir := filepath.Join("testdata", "fuzz", "FuzzConfigRoundTrip")
	for i, cfg := range []Config{
		{Scheme: FullReplication},
		{Scheme: Fixed, X: 20},
		{Scheme: RandomServer, X: 20, RSReplace: true},
		{Scheme: RoundRobin, Y: 3},
		{Scheme: Hash, Y: 2, Seed: 1 << 60},
		{Scheme: MultiProbe, Y: 3, Seed: 0xfeed},
		{Scheme: Hash, Y: 3, Seed: 7, ZoneSpread: true},
	} {
		writeSeed(configDir, fmt.Sprintf("seed-%02d-%s", i, cfg.Scheme),
			fmt.Sprintf("byte(%s)", strconv.QuoteRune(rune(cfg.Scheme))),
			fmt.Sprintf("int(%d)", cfg.X),
			fmt.Sprintf("int(%d)", cfg.Y),
			fmt.Sprintf("uint64(%d)", cfg.Seed),
			fmt.Sprintf("bool(%v)", cfg.RSReplace),
			fmt.Sprintf("bool(%v)", cfg.ZoneSpread))
	}
}
