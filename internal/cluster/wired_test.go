package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// newWired builds a volatile wired cluster that t closes.
func newWired(t *testing.T, n int, rng *stats.RNG) *cluster.Cluster {
	t.Helper()
	cl, err := cluster.NewWired(n, rng, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// TestWiredServersCountTheMeter checks the paper's message meter
// against the servers, under every scheme: each message a wired cluster
// counts crossed a socket, and a server handled it, or a node delivered
// it to itself in process.
func TestWiredServersCountTheMeter(t *testing.T) {
	for _, cfg := range []wire.Config{
		{Scheme: wire.FullReplication}, {Scheme: wire.Fixed, X: 6}, {Scheme: wire.RandomServer, X: 6},
		{Scheme: wire.RoundRobin, Y: 2}, {Scheme: wire.Hash, Y: 2, Seed: 7},
		{Scheme: wire.MultiProbe, Y: 2, Seed: 7}, {Scheme: wire.KeyPartition},
	} {
		rng := stats.NewRNG(61)
		cl := newWired(t, 5, rng.Split())
		reg := telemetry.NewRegistry()
		cl.EnableTelemetry(reg)
		drv := strategy.MustNew(cfg, rng.Split())
		ctx := context.Background()
		err := drv.Place(ctx, cl.Caller(), "k", entry.Synthetic(10))
		for i := 0; i < 12 && err == nil; i++ {
			switch v := fmt.Sprintf("v%d", i); i % 3 {
			case 0:
				err = drv.Add(ctx, cl.Caller(), "k", v+"+")
			case 1:
				err = drv.Delete(ctx, cl.Caller(), "k", v)
			default:
				_, err = drv.PartialLookup(ctx, cl.Caller(), "k", 4)
			}
		}
		if err != nil {
			t.Fatalf("%v: %v", cfg, err)
		}
		var handled, local int64
		for i := 0; i < cl.N(); i++ { // each server counts into its member's registry
			srv := cl.Member(i).Registry.Snapshot().Counters
			handled += srv["server.handled_inline"] + srv["server.handled_detached"]
		}
		for _, n := range reg.Snapshot().PerServer["node.local_deliveries"] {
			local += n
		}
		if handled == 0 || handled != cl.Messages()-local {
			t.Errorf("%v: servers handled %d messages; the meter counts %d, %d of them delivered in process",
				cfg, handled, cl.Messages(), local)
		}
	}
}

// TestWiredCloseReleasesEverything builds and closes fifty wired
// clusters, one of them durable, each taking a place, a Replace, a Join
// and a Drain; no goroutine and no descriptor may outlive them.
func TestWiredCloseReleasesEverything(t *testing.T) {
	fds := func() int {
		open, _ := os.ReadDir("/proc/self/fd") // none where there is no /proc
		return len(open)
	}
	goroutines, files := runtime.NumGoroutine(), fds()
	ctx := context.Background()
	var closed []*cluster.Cluster // reachable, so no finalizer closes a file Close missed
	for i := 0; i < 50; i++ {
		dir := ""
		if i == 0 {
			dir = t.TempDir()
		}
		cl, err := cluster.NewWired(3, stats.NewRNG(uint64(i)), dir)
		if err != nil {
			t.Fatal(err)
		}
		placeFull(t, cl, 3)
		cl.Replace(1, stats.NewRNG(99))
		if _, err = cl.Join(ctx, stats.NewRNG(98)); err == nil {
			_, err = cl.Drain(ctx, 0)
		}
		if err = errors.Join(err, cl.Close()); err != nil {
			t.Fatalf("cluster %d: %v", i, err)
		}
		closed = append(closed, cl)
	}
	// A client connection's reader exits once it reads the close.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines || fds() > files; {
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d goroutines and %d descriptors, %d and %d before",
				runtime.NumGoroutine(), fds(), goroutines, files)
		}
		time.Sleep(10 * time.Millisecond)
	}
	runtime.KeepAlive(closed)
}
