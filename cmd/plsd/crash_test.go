// Crash-recovery harness: builds the real plsd binary, runs it as a
// cluster of OS processes against per-node data dirs, and proves the
// durability contract end to end:
//
//   - every write acknowledged before a SIGKILL is present after restart;
//   - a cluster restarted after SIGKILL answers lookups byte-identically
//     to one restarted gracefully (SIGTERM, drained, flushed) — recovery
//     rebuilds placement-identical state and perturbs no RNG stream.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

const (
	crashNodes = 3
	crashSeed  = 7777
)

func buildPlsd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "plsd")
	out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build plsd: %v\n%s", err, out)
	}
	return bin
}

// freeAddrs reserves n distinct loopback ports and releases them for the
// daemons to rebind. The window between close and rebind is racy in
// principle; the readiness ping bounds the damage to a clean failure.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// syncBuffer makes a daemon's combined output safe to read while the
// process is still running: exec.Cmd copies pipe output from its own
// goroutine, and the test inspects startup lines of live daemons.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

type daemon struct {
	cmd *exec.Cmd
	out *syncBuffer
}

// startCluster launches one plsd per address, each with its own data
// dir, a deterministic per-node seed and the given -fsync policy, and
// waits until all answer pings.
func startCluster(t *testing.T, bin, fsync string, addrs, dirs []string) []*daemon {
	t.Helper()
	peers := strings.Join(addrs, ",")
	ds := make([]*daemon, len(addrs))
	for i := range addrs {
		cmd := exec.Command(bin,
			"-listen", addrs[i],
			"-peers", peers,
			"-seed", strconv.FormatUint(crashSeed+uint64(i), 10),
			"-data-dir", dirs[i],
			"-fsync", fsync,
			"-snapshot-interval", "0",
			"-repair-interval", "0",
		)
		buf := new(syncBuffer)
		cmd.Stdout = buf
		cmd.Stderr = buf
		if err := cmd.Start(); err != nil {
			t.Fatalf("start plsd %d: %v", i, err)
		}
		ds[i] = &daemon{cmd: cmd, out: buf}
	}
	t.Cleanup(func() {
		for _, d := range ds {
			if d.cmd.ProcessState == nil {
				_ = d.cmd.Process.Kill()
				_ = d.cmd.Wait()
			}
		}
	})
	client := transport.NewClient(addrs, transport.WithTimeout(time.Second))
	defer client.Close()
	for i := range addrs {
		waitReady(t, client, i, ds[i])
	}
	return ds
}

func waitReady(t *testing.T, client *transport.Client, server int, d *daemon) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := client.Call(context.Background(), server, wire.Ping{}); err == nil {
			return
		}
		if d.cmd.ProcessState != nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("plsd %d never became ready; output:\n%s", server, d.out.String())
}

// batchKeys are the keys crashWorkload places and adds to in batch
// envelopes, one per strategy: a PlaceBatch and an AddBatch are each
// one request, acked once for all of their items.
var batchKeys = []string{"crash-batch-full", "crash-batch-round", "crash-batch-hash"}

// crashWorkload drives placements, adds, deletes, and interleaved
// lookups over three keys with three different strategies, then places
// and adds to batchKeys in one PlaceBatch and one AddBatch, returning
// the entries each key must hold after every acked mutation applied.
func crashWorkload(t *testing.T, client *transport.Client) map[string]map[string]bool {
	t.Helper()
	configs := map[string]wire.Config{
		"crash-full":  {Scheme: wire.FullReplication},
		"crash-rs":    {Scheme: wire.RandomServer, X: 2},
		"crash-round": {Scheme: wire.RoundRobin, Y: 2},
	}
	expect := make(map[string]map[string]bool)
	// Stable iteration order: both arms must drive byte-identical
	// request streams, and map order is randomized.
	for _, key := range []string{"crash-full", "crash-rs", "crash-round"} {
		cfg := configs[key]
		want := make(map[string]bool)
		entries := make([]string, 6)
		for i := range entries {
			entries[i] = fmt.Sprintf("%s-v%d", key, i+1)
			want[entries[i]] = true
		}
		mustAck(t, client, 0, wire.Place{Key: key, Config: cfg, Entries: entries})
		for i := 0; i < 3; i++ {
			v := fmt.Sprintf("%s-add%d", key, i)
			mustAck(t, client, 0, wire.Add{Key: key, Config: cfg, Entry: v})
			want[v] = true
			if _, err := client.Call(context.Background(), i%crashNodes, wire.Lookup{Key: key, T: 3}); err != nil {
				t.Fatalf("workload lookup: %v", err)
			}
		}
		mustAck(t, client, 0, wire.Delete{Key: key, Config: cfg, Entry: entries[0]})
		delete(want, entries[0])
		expect[key] = want
	}

	batchConfigs := []wire.Config{
		{Scheme: wire.FullReplication},
		{Scheme: wire.RoundRobin, Y: 2},
		{Scheme: wire.Hash, Y: 2, Seed: 11},
	}
	var places []wire.Place
	var adds []wire.Add
	for i, key := range batchKeys {
		entries := []string{key + "-v1", key + "-v2", key + "-v3"}
		places = append(places, wire.Place{Key: key, Config: batchConfigs[i], Entries: entries})
		adds = append(adds, wire.Add{Key: key, Config: batchConfigs[i], Entry: key + "-add"})
		expect[key] = map[string]bool{entries[0]: true, entries[1]: true, entries[2]: true, key + "-add": true}
	}
	mustBatchAck(t, client, wire.PlaceBatch{Items: places}, len(places))
	mustBatchAck(t, client, wire.AddBatch{Items: adds}, len(adds))
	return expect
}

// mustBatchAck sends a batch envelope of n items to server 0, the
// Round-y coordinator, and fails unless every item is acked.
func mustBatchAck(t *testing.T, client *transport.Client, msg wire.Message, n int) {
	t.Helper()
	reply, err := client.Call(context.Background(), 0, msg)
	if err != nil {
		t.Fatalf("Call(0, %T): %v", msg, err)
	}
	ack, ok := reply.(wire.BatchAck)
	if !ok || ack.Err != "" || len(ack.Errs) != n {
		t.Fatalf("Call(0, %T) reply: %+v", msg, reply)
	}
	for i, e := range ack.Errs {
		if e != "" {
			t.Fatalf("Call(0, %T) item %d: %s", msg, i, e)
		}
	}
}

func mustAck(t *testing.T, client *transport.Client, server int, msg wire.Message) {
	t.Helper()
	reply, err := client.Call(context.Background(), server, msg)
	if err != nil {
		t.Fatalf("Call(%d, %T): %v", server, msg, err)
	}
	if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
		t.Fatalf("Call(%d, %T) reply: %+v", server, msg, reply)
	}
}

// collectLookups samples every key from every server with a fixed probe
// sequence; two clusters in identical states with identical RNG streams
// must return identical slices.
func collectLookups(t *testing.T, client *transport.Client) [][]string {
	t.Helper()
	var out [][]string
	for _, key := range append([]string{"crash-full", "crash-rs", "crash-round"}, batchKeys...) {
		for s := 0; s < crashNodes; s++ {
			for _, probe := range []int{2, 4} {
				reply, err := client.Call(context.Background(), s, wire.Lookup{Key: key, T: probe})
				if err != nil {
					t.Fatalf("Lookup(%d, %q): %v", s, key, err)
				}
				lr, ok := reply.(wire.LookupReply)
				if !ok || lr.Err != "" {
					t.Fatalf("Lookup reply: %+v", reply)
				}
				out = append(out, lr.Entries)
			}
		}
	}
	return out
}

// unionDump returns the union of every server's full local set for key.
func unionDump(t *testing.T, client *transport.Client, key string) map[string]bool {
	t.Helper()
	got := make(map[string]bool)
	for s := 0; s < crashNodes; s++ {
		reply, err := client.Call(context.Background(), s, wire.Dump{Key: key})
		if err != nil {
			t.Fatalf("Dump(%d, %q): %v", s, key, err)
		}
		dr, ok := reply.(wire.DumpReply)
		if !ok {
			t.Fatalf("Dump reply: %+v", reply)
		}
		for _, v := range dr.Entries {
			got[v] = true
		}
	}
	return got
}

// TestCrashRecoveryEndToEnd holds the contract under every sync policy:
// a SIGKILL spares the page cache, so "never" must recover too.
func TestCrashRecoveryEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real daemons")
	}
	bin := buildPlsd(t)
	for _, fsync := range []string{"batch", "always", "never"} {
		t.Run(fsync, func(t *testing.T) { crashRecovery(t, bin, fsync) })
	}
}

// TestPlsdRefusesSnapshotFiles: a data dir that still holds a snapshot
// file of an earlier version makes plsd exit non-zero, naming the file,
// before it serves anything.
func TestPlsdRefusesSnapshotFiles(t *testing.T) {
	bin := buildPlsd(t)
	dir := t.TempDir()
	old := filepath.Join(dir, "snap-0000000000000001.snap")
	if err := os.WriteFile(old, []byte("plssnp01"), 0o644); err != nil {
		t.Fatal(err)
	}
	addr := freeAddrs(t, 1)[0]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-listen", addr, "-peers", addr, "-data-dir", dir).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 || !strings.Contains(string(out), old) {
		t.Fatalf("plsd over a snapshot file: %v, output:\n%s\nwant exit status 1 naming %s", err, out, old)
	}
}

func crashRecovery(t *testing.T, bin, fsync string) {
	// Two independent arms with identical seeds and workloads. Arm A is
	// SIGKILLed mid-stream (no flush, no final checkpoint: the WAL tail is
	// all recovery has); arm B shuts down gracefully.
	runArm := func(name string, stop func(*daemon)) (map[string]map[string]bool, [][]string, []string, []*daemon) {
		addrs := freeAddrs(t, crashNodes)
		dirs := make([]string, crashNodes)
		for i := range dirs {
			dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("%s-%d", name, i))
		}
		ds := startCluster(t, bin, fsync, addrs, dirs)
		client := transport.NewClient(addrs, transport.WithTimeout(2*time.Second))
		defer client.Close()
		expect := crashWorkload(t, client)
		for _, d := range ds {
			stop(d)
		}
		restarted := startCluster(t, bin, fsync, addrs, dirs)
		return expect, nil, addrs, restarted
	}

	kill := func(d *daemon) {
		if err := d.cmd.Process.Kill(); err != nil { // SIGKILL: no handler runs
			t.Fatalf("kill: %v", err)
		}
		_ = d.cmd.Wait()
	}
	term := func(d *daemon) {
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatalf("sigterm: %v", err)
		}
		if err := d.cmd.Wait(); err != nil {
			t.Fatalf("graceful exit: %v; output:\n%s", err, d.out.String())
		}
		if !strings.Contains(d.out.String(), "durable state flushed") {
			t.Fatalf("graceful shutdown did not flush; output:\n%s", d.out.String())
		}
	}

	expectA, _, addrsA, armA := runArm("killed", kill)
	expectB, _, addrsB, armB := runArm("graceful", term)
	if !reflect.DeepEqual(expectA, expectB) {
		t.Fatal("arms diverged while building expectations — harness bug")
	}

	clientA := transport.NewClient(addrsA, transport.WithTimeout(2*time.Second))
	defer clientA.Close()
	clientB := transport.NewClient(addrsB, transport.WithTimeout(2*time.Second))
	defer clientB.Close()

	// 1. Every acked write survived the SIGKILL, the batched items
	// included. For the non-evicting schemes the union across servers
	// must be exactly the acked set; RandomServer's reservoir
	// replacement may legitimately evict older entries on adds, so
	// there the bar is recovery fidelity: the killed arm holds exactly
	// what the graceful arm holds.
	for _, key := range append([]string{"crash-full", "crash-round"}, batchKeys...) {
		got := unionDump(t, clientA, key)
		if want := expectA[key]; !reflect.DeepEqual(got, want) {
			t.Errorf("killed arm, key %q: entries after restart = %v, want %v", key, got, want)
		}
	}
	for key := range expectA {
		gotA := unionDump(t, clientA, key)
		gotB := unionDump(t, clientB, key)
		if !reflect.DeepEqual(gotA, gotB) {
			t.Errorf("key %q: killed arm holds %v, graceful arm holds %v", key, gotA, gotB)
		}
	}

	// 2. The killed arm actually exercised WAL replay: its nodes applied
	// outcome records on top of the key states. The graceful arm
	// recovered purely from its shutdown checkpoint's key states.
	replayedSomething := false
	for _, d := range armA {
		if !strings.Contains(d.out.String(), " and 0 outcome records") {
			replayedSomething = true
		}
	}
	if !replayedSomething {
		t.Error("no killed-arm node replayed any outcome record — harness not testing replay")
	}
	for i, d := range armB {
		if !strings.Contains(d.out.String(), " and 0 outcome records") {
			t.Errorf("graceful arm node %d replayed outcome records after a clean shutdown:\n%s", i, d.out.String())
		}
	}

	// 3. Byte-identical lookups: crash recovery is indistinguishable
	// from a graceful restart.
	lookupsA := collectLookups(t, clientA)
	lookupsB := collectLookups(t, clientB)
	if !reflect.DeepEqual(lookupsA, lookupsB) {
		t.Errorf("post-restart lookups diverged between killed and graceful arms:\n killed  %v\n graceful %v", lookupsA, lookupsB)
	}
}
