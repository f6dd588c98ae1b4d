package node

import (
	"context"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// peerCall is one message a node handed to its attached peer caller.
type peerCall struct {
	from, to int
	kind     wire.Kind
}

// callLog records the peer calls of a loopCluster. before, when set,
// runs as each call is recorded, ahead of its delivery.
type callLog struct {
	mu     sync.Mutex
	calls  []peerCall
	before func(peerCall)
}

func (l *callLog) record(c peerCall) {
	l.mu.Lock()
	l.calls = append(l.calls, c)
	before := l.before
	l.mu.Unlock()
	if before != nil {
		before(c)
	}
}

// onCall sets before.
func (l *callLog) onCall(before func(peerCall)) {
	l.mu.Lock()
	l.before = before
	l.mu.Unlock()
}

// take returns the calls recorded since the last take.
func (l *callLog) take() []peerCall {
	l.mu.Lock()
	defer l.mu.Unlock()
	calls := l.calls
	l.calls = nil
	return calls
}

// loggedCaller is a node's peer caller under a callLog.
type loggedCaller struct {
	transport.Caller
	from int
	log  *callLog
}

func (c loggedCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	c.log.record(peerCall{from: c.from, to: server, kind: msg.Kind()})
	return c.Caller.Call(ctx, server, msg)
}

// loopCluster is n nodes behind loopback TCP servers, each with its own
// logged peer client (one connection per peer, as plsd's default), and
// a client of the whole cluster. dirs[i], when set, makes node i
// durable under it.
type loopCluster struct {
	t      *testing.T
	nodes  []*Node
	durs   []*Durability
	log    *callLog
	client *transport.Client
	// metrics is every node's; node.local_deliveries counts each
	// message a node kept in process.
	metrics *telemetry.NodeMetrics
}

func newLoopCluster(t *testing.T, n int, dirs []string, policy store.SyncPolicy) *loopCluster {
	t.Helper()
	lc := &loopCluster{t: t, log: &callLog{}, metrics: telemetry.NewNodeMetrics(telemetry.NewRegistry(), n)}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		nd := New(i, stats.NewRNG(uint64(i)+1))
		nd.Instrument(lc.metrics)
		var d *Durability
		if dirs != nil {
			var err error
			if d, err = nd.OpenDurability(dirs[i], policy, 0, telemetry.NewWALMetrics(telemetry.NewRegistry())); err != nil {
				t.Fatalf("OpenDurability(node %d): %v", i, err)
			}
			t.Cleanup(func() { _ = d.WAL().Close() }) // a test may have closed it to read it
		}
		srv := transport.NewServer(nd)
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatalf("Listen %d: %v", i, err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = addr
		lc.nodes = append(lc.nodes, nd)
		lc.durs = append(lc.durs, d)
	}
	dial := func() *transport.Client {
		c := transport.NewClient(addrs, transport.WithTimeout(10*time.Second))
		t.Cleanup(func() { c.Close() })
		return c
	}
	for i, nd := range lc.nodes {
		nd.Attach(loggedCaller{Caller: dial(), from: i, log: lc.log})
	}
	lc.client = dial()
	return lc
}

func (lc *loopCluster) mustAck(server int, msg wire.Message) {
	lc.t.Helper()
	reply, err := lc.client.Call(context.Background(), server, msg)
	if ack, ok := reply.(wire.Ack); err != nil || !ok || ack.Err != "" {
		lc.t.Fatalf("%T to server %d: %#v, %v", msg, server, reply, err)
	}
}

// selfDeliveryOps is a seeded update sequence over a Hash-2 key, whose
// operations land on any server, and a Round-2 key, whose operations go
// to coordinator 0: either way the server an operation reaches is often
// one of the servers it must store on or remove from.
func selfDeliveryOps(seed uint64, n int) (servers []int, msgs []wire.Message) {
	rng := stats.NewRNG(seed)
	type keyed struct {
		key  string
		cfg  wire.Config
		live []string
		next int
	}
	keys := []*keyed{
		{key: "hk", cfg: wire.Config{Scheme: wire.Hash, Y: 2, Seed: 7}},
		{key: "rk", cfg: wire.Config{Scheme: wire.RoundRobin, Y: 2}},
	}
	send := func(k *keyed, msg wire.Message) {
		server := 0
		if k.cfg.Scheme == wire.Hash {
			server = rng.IntN(n)
		}
		servers, msgs = append(servers, server), append(msgs, msg)
	}
	fresh := func(k *keyed) string {
		k.next++
		return fmt.Sprintf("%s-v%d", k.key, k.next)
	}
	for _, k := range keys {
		for i := 0; i < 6; i++ {
			k.live = append(k.live, fresh(k))
		}
		send(k, wire.Place{Key: k.key, Config: k.cfg, Entries: append([]string(nil), k.live...)})
	}
	for op := 0; op < 60; op++ {
		k := keys[rng.IntN(len(keys))]
		if len(k.live) > 2 && rng.IntN(5) < 2 {
			i := rng.IntN(len(k.live))
			send(k, wire.Delete{Key: k.key, Config: k.cfg, Entry: k.live[i]})
			k.live = append(k.live[:i], k.live[i+1:]...)
			continue
		}
		v := fresh(k)
		k.live = append(k.live, v)
		send(k, wire.Add{Key: k.key, Config: k.cfg, Entry: v})
	}
	return servers, msgs
}

// dumpState renders everything the nodes of a durable loopCluster hold
// after a run: each key's full state as snapshots serialize it (entry
// set in internal order, Round-Robin positions and counters) and every
// WAL record the run appended, in sequence order. It closes the WALs.
func (lc *loopCluster) dumpState(dirs []string) string {
	lc.t.Helper()
	var b strings.Builder
	for i, nd := range lc.nodes {
		writeStates(&b, i, nd)
		if err := lc.durs[i].WAL().Close(); err != nil {
			lc.t.Fatalf("close WAL %d: %v", i, err)
		}
		wal, err := store.OpenWAL(dirs[i], 1, store.SyncAlways, nil)
		if err != nil {
			lc.t.Fatalf("reopen WAL %d: %v", i, err)
		}
		if _, err := wal.Replay(func(seq uint64, msg wire.Message) error {
			fmt.Fprintf(&b, "node %d wal seq %d %T%+v\n", i, seq, msg, msg)
			return nil
		}); err != nil {
			lc.t.Fatalf("replay WAL %d: %v", i, err)
		}
	}
	return b.String()
}

// TestSelfDeliveryMatchesAllRemoteRun: the golden is what this test's
// seeded sequence left behind on the last commit at which a node dialled
// its own listener for the messages it addressed to itself — every
// message remote, over these same loopback sockets. Handling those
// messages in process instead must leave the same stored sets in the
// same internal order, the same Round-Robin positions and counters, and
// the same WAL records with the same sequence numbers, on every node.
// NODE_GEN_GOLDEN=1 rewrites the golden from the code under test.
func TestSelfDeliveryMatchesAllRemoteRun(t *testing.T) {
	const n, golden = 4, "testdata/golden-selfdelivery-state.txt"
	dirs := nodeDirs(t, n)
	lc := newLoopCluster(t, n, dirs, store.SyncAlways)
	servers, msgs := selfDeliveryOps(42, n)
	for i, msg := range msgs {
		lc.mustAck(servers[i], msg)
	}
	checkGolden(t, golden, lc.dumpState(dirs), "the all-remote run")
}

// writeStates renders every key state nd holds as snapshots serialize
// it, in key order, and returns the keys.
func writeStates(b *strings.Builder, i int, nd *Node) []string {
	state := captureState(nd)
	keys := make([]string, 0, len(state))
	for k := range state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(b, "node %d state %+v\n", i, state[k])
	}
	return keys
}

// checkGolden compares got with the golden file and names the first
// line at which it differs from what reference, the code that wrote the
// golden, left behind. NODE_GEN_GOLDEN=1 rewrites the file from got.
func checkGolden(t *testing.T, golden, got, reference string) {
	t.Helper()
	if os.Getenv("NODE_GEN_GOLDEN") != "" {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("state differs from %s at line %d:\n got %s\nwant %s", reference, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("state differs from %s: %d lines, want %d", reference, len(gl), len(wl))
	}
}
