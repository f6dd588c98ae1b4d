// Live-resize harness: builds the real plsd binary, runs a 3-daemon
// cluster, scales out to 4 with `plsd -join`, then drains a middle
// member back out — proving the operator-facing membership path end to
// end over TCP:
//
//   - a joiner admitted while traffic state exists receives its share of
//     every key before the join call returns;
//   - draining a non-tail member renumbers the survivors and loses no
//     acked entry (union across survivors is exactly the acked set);
//   - the drained daemon shuts itself down gracefully, leaving its data
//     dir behind as the escrow checkpoint.
package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wire"
)

// startJoiner launches one plsd in -join mode: it knows the full
// post-join peer list (itself last) and asks coordinator to admit it.
func startJoiner(t *testing.T, bin string, allAddrs []string, dir, coordinator string) *daemon {
	t.Helper()
	id := len(allAddrs) - 1
	cmd := exec.Command(bin,
		"-listen", allAddrs[id],
		"-peers", strings.Join(allAddrs, ","),
		"-seed", strconv.FormatUint(crashSeed+uint64(id), 10),
		"-data-dir", dir,
		"-fsync", "batch",
		"-snapshot-interval", "0",
		"-repair-interval", "0",
		"-join", coordinator,
	)
	buf := new(syncBuffer)
	cmd.Stdout = buf
	cmd.Stderr = buf
	if err := cmd.Start(); err != nil {
		t.Fatalf("start joiner: %v", err)
	}
	d := &daemon{cmd: cmd, out: buf}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			_ = d.cmd.Process.Kill()
			_ = d.cmd.Wait()
		}
	})
	return d
}

// unionDumpN is unionDump generalized over the current cluster size.
func unionDumpN(t *testing.T, client *transport.Client, n int, key string) map[string]bool {
	t.Helper()
	got := make(map[string]bool)
	for s := 0; s < n; s++ {
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

func serverEntryCount(t *testing.T, client *transport.Client, server int, keys []string) int {
	t.Helper()
	total := 0
	for _, key := range keys {
		reply, err := client.Call(context.Background(), server, wire.Dump{Key: key})
		if err != nil {
			t.Fatalf("Dump(%d, %q): %v", server, key, err)
		}
		if dr, ok := reply.(wire.DumpReply); ok {
			total += len(dr.Entries)
		}
	}
	return total
}

// checkCluster asserts that, at the current cluster size, every key
// still holds exactly its acked entry set AND that a config-carrying
// client probing the scheme's servers satisfies a t=2 partial lookup —
// i.e. the rebalance put entries where the placement function now says
// they belong, not merely somewhere.
func checkCluster(t *testing.T, client *transport.Client, n int, configs map[string]wire.Config, expect map[string]map[string]bool, stage string) {
	t.Helper()
	svc, err := core.NewService(client, core.WithDefaultConfig(core.Config{Scheme: wire.FullReplication}))
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range expect {
		if got := unionDumpN(t, client, n, key); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: key %q holds %v, want %v", stage, key, got, want)
		}
		if err := svc.SetKeyConfig(key, configs[key]); err != nil {
			t.Fatal(err)
		}
		res, err := svc.PartialLookup(context.Background(), key, 2)
		if err != nil {
			t.Fatalf("%s: PartialLookup(%q): %v", stage, key, err)
		}
		if !res.Satisfied(2) {
			t.Errorf("%s: PartialLookup(%q, 2) unsatisfied: %d entries from %d servers",
				stage, key, len(res.Entries), res.Contacted)
		}
	}
}

func TestMembershipScaleOutScaleInEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs real daemons")
	}
	bin := buildPlsd(t)

	addrs := freeAddrs(t, 4)
	dirs := make([]string, 4)
	for i := range dirs {
		dirs[i] = filepath.Join(t.TempDir(), fmt.Sprintf("member-%d", i))
	}
	base := startCluster(t, bin, "batch", addrs[:3], dirs[:3])

	client3 := transport.NewClient(addrs[:3], transport.WithTimeout(2*time.Second))
	defer client3.Close()

	// Workload: one fully-replicated key, one striped key, and a spread
	// of hashed keys — enough that both the join and the drain must move
	// entries between members.
	configs := map[string]wire.Config{
		"member-full":  {Scheme: wire.FullReplication},
		"member-round": {Scheme: wire.RoundRobin, Y: 2},
	}
	for i := 0; i < 8; i++ {
		configs[fmt.Sprintf("member-hash-%d", i)] = wire.Config{Scheme: wire.Hash, Y: 2, Seed: 2}
	}
	expect := make(map[string]map[string]bool)
	var allKeys []string
	for key, cfg := range configs {
		allKeys = append(allKeys, key)
		entries := make([]string, 4)
		want := make(map[string]bool)
		for i := range entries {
			entries[i] = fmt.Sprintf("%s-v%d", key, i+1)
			want[entries[i]] = true
		}
		mustAck(t, client3, 0, wire.Place{Key: key, Config: cfg, Entries: entries})
		expect[key] = want
	}

	// Scale out: daemon 3 starts with the full post-join list and asks
	// member 0 to admit it. Admission only acks after every member's
	// rebalance sweep, so readiness implies the data already moved.
	joiner := startJoiner(t, bin, addrs, dirs[3], addrs[0])
	client4 := transport.NewClient(addrs, transport.WithTimeout(2*time.Second))
	defer client4.Close()
	waitReady(t, client4, 3, joiner)
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(joiner.out.String(), "joined as server 3/4 at epoch") {
		if time.Now().After(deadline) {
			t.Fatalf("joiner never confirmed admission; output:\n%s", joiner.out.String())
		}
		time.Sleep(25 * time.Millisecond)
	}

	checkCluster(t, client4, 4, configs, expect, "post-join")
	if got := serverEntryCount(t, client4, 3, allKeys); got == 0 {
		t.Error("post-join: the joiner holds no entries — rebalance moved nothing to it")
	}

	// Scale in: drain member 1 (a middle slot, so survivors 2 and 3 must
	// renumber) through survivor 0, exactly as plsctl drain would.
	adminClient := transport.NewClient(addrs, transport.WithTimeout(time.Minute))
	defer adminClient.Close()
	actx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	reply, err := adminClient.Call(actx, 0, wire.Leave{Server: 1})
	if err != nil {
		t.Fatalf("Leave(1): %v", err)
	}
	if up, ok := reply.(wire.MembershipUpdate); !ok || up.Leaving != 1 || len(up.Addrs) != 3 || up.Epoch != 2 {
		t.Fatalf("Leave(1) reply: %+v, want the committed update draining slot 1 at epoch 2", reply)
	}

	// The drained daemon must shut itself down gracefully.
	exited := make(chan error, 1)
	go func() { exited <- base[1].cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("drained daemon exit: %v; output:\n%s", err, base[1].out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("drained daemon never exited; output:\n%s", base[1].out.String())
	}
	out := base[1].out.String()
	if !strings.Contains(out, "drained out of the cluster") {
		t.Errorf("drained daemon did not report the drain; output:\n%s", out)
	}
	if !strings.Contains(out, "durable state flushed") {
		t.Errorf("drained daemon did not flush its escrow checkpoint; output:\n%s", out)
	}

	survivors := []string{addrs[0], addrs[2], addrs[3]}
	clientS := transport.NewClient(survivors, transport.WithTimeout(2*time.Second))
	defer clientS.Close()
	checkCluster(t, clientS, 3, configs, expect, "post-drain")
}
