package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/wire"
)

// Snapshots compact the WAL: a snapshot file holds every key's full
// state (config, entry set with internal order and insertion
// sequences, scheme-private counters) plus the WAL sequence its view
// reflects, so recovery loads the newest valid snapshot and replays
// only the WAL tail past each key's recorded sequence.
//
// On-disk layout, under <data-dir>/:
//
//	snap-<generation>.snap
//
// A snapshot file starts with the 8-byte magic "plssnp01" followed by
// WAL-style frames (same CRC32-C framing as segments; the frame
// sequence field numbers the keys 1..n). Each frame holds a
// wire.SnapKey; the final frame is a wire.SnapFooter carrying the key
// count, proving the file is complete. A snapshot missing its footer
// (crash mid-write, though tmp+rename makes that near-impossible) or
// failing any CRC is ignored and the next-older generation is tried.

const snapHeaderSize = 8

// snapPath names generation gen's snapshot file.
func snapPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016d.snap", gen))
}

// WriteSnapshot atomically writes snapshot generation gen. emit is
// called with a function that appends one key frame; WriteSnapshot
// adds the footer, fsyncs, and renames into place. It returns the
// final path and file size.
func WriteSnapshot(dir string, gen uint64, emit func(write func(wire.SnapKey) error) error) (string, int64, error) {
	final := snapPath(dir, gen)
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", 0, fmt.Errorf("store: create snapshot: %w", err)
	}
	// Clean up the tmp file on any failure path.
	fail := func(e error) (string, int64, error) {
		f.Close()
		os.Remove(tmp)
		return "", 0, e
	}
	if _, err := f.Write([]byte(snapMagic)); err != nil {
		return fail(fmt.Errorf("store: write snapshot magic: %w", err))
	}
	var keys uint64
	var buf []byte
	write := func(sk wire.SnapKey) error {
		keys++
		buf = appendFrame(buf[:0], keys, sk)
		_, werr := f.Write(buf)
		return werr
	}
	if err := emit(write); err != nil {
		return fail(fmt.Errorf("store: write snapshot keys: %w", err))
	}
	buf = appendFrame(buf[:0], keys+1, wire.SnapFooter{Keys: keys})
	if _, err := f.Write(buf); err != nil {
		return fail(fmt.Errorf("store: write snapshot footer: %w", err))
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("store: sync snapshot: %w", err))
	}
	size, err := f.Seek(0, 1)
	if err != nil {
		size = 0
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", 0, fmt.Errorf("store: close snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", 0, fmt.Errorf("store: publish snapshot: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return "", 0, err
	}
	return final, size, nil
}

// readSnapshot parses one snapshot file, returning its keys. It fails
// on bad magic, any bad frame, a missing footer, or a footer whose key
// count disagrees with the frames read.
func readSnapshot(path string) ([]wire.SnapKey, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: read snapshot: %w", err)
	}
	if len(data) < snapHeaderSize || string(data[:snapHeaderSize]) != snapMagic {
		return nil, fmt.Errorf("store: %s: not a snapshot file", path)
	}
	rest := data[snapHeaderSize:]
	var keys []wire.SnapKey
	for len(rest) > 0 {
		_, payload, n, ok := parseFrame(rest)
		if !ok {
			return nil, fmt.Errorf("store: %s: corrupt snapshot frame after %d keys", path, len(keys))
		}
		msg, err := wire.Decode(payload)
		if err != nil {
			return nil, fmt.Errorf("store: %s: corrupt snapshot record: %w", path, err)
		}
		rest = rest[n:]
		switch m := msg.(type) {
		case wire.SnapKey:
			keys = append(keys, m)
		case wire.SnapFooter:
			if m.Keys != uint64(len(keys)) {
				return nil, fmt.Errorf("store: %s: footer claims %d keys, file has %d", path, m.Keys, len(keys))
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("store: %s: %d trailing bytes after footer", path, len(rest))
			}
			return keys, nil
		default:
			return nil, fmt.Errorf("store: %s: unexpected %T in snapshot", path, msg)
		}
	}
	return nil, fmt.Errorf("store: %s: snapshot missing footer", path)
}

// listSnapshots returns snapshot generations present in dir, ascending.
func listSnapshots(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list snapshots: %w", err)
	}
	var gens []uint64
	for _, e := range ents {
		name := e.Name()
		var gen uint64
		if _, err := fmt.Sscanf(name, "snap-%d.snap", &gen); err != nil || !strings.HasSuffix(name, ".snap") {
			continue
		}
		gens = append(gens, gen)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// LoadNewestSnapshot finds the newest snapshot in dir that passes
// validation and returns its generation and keys. Generations that
// fail to parse are skipped (older ones are tried); gen 0 with no keys
// means no usable snapshot exists.
func LoadNewestSnapshot(dir string) (gen uint64, keys []wire.SnapKey, err error) {
	gens, err := listSnapshots(dir)
	if err != nil {
		return 0, nil, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		keys, rerr := readSnapshot(snapPath(dir, gens[i]))
		if rerr == nil {
			return gens[i], keys, nil
		}
	}
	return 0, nil, nil
}

// NextSnapshotGen returns one past the highest generation on disk.
func NextSnapshotGen(dir string) (uint64, error) {
	gens, err := listSnapshots(dir)
	if err != nil {
		return 0, err
	}
	if len(gens) == 0 {
		return 1, nil
	}
	return gens[len(gens)-1] + 1, nil
}

// PruneSnapshots deletes all but the newest keep snapshot generations.
// Keeping one extra generation guards against a latent bad sector in
// the newest file.
func PruneSnapshots(dir string, keep int) error {
	gens, err := listSnapshots(dir)
	if err != nil {
		return err
	}
	if keep < 1 {
		keep = 1
	}
	if len(gens) <= keep {
		return nil
	}
	for _, gen := range gens[:len(gens)-keep] {
		if err := os.Remove(snapPath(dir, gen)); err != nil {
			return fmt.Errorf("store: prune snapshot: %w", err)
		}
	}
	return syncDir(dir)
}
