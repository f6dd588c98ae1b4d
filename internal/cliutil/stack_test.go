package cliutil

import (
	"context"
	"flag"
	"net"
	"testing"

	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/wire"
)

// parseClientFlags parses args as a binary's shared client flags.
func parseClientFlags(t *testing.T, args ...string) *ClientFlags {
	t.Helper()
	fs := flag.NewFlagSet("client", flag.ContinueOnError)
	cf := RegisterClientFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return cf
}

// newStack builds a stack from cf into a fresh registry.
func newStack(t *testing.T, cf *ClientFlags, addrs []string, tp *topo.Topology, zone string) (*Stack, *telemetry.Registry) {
	t.Helper()
	cfg, err := cf.Config()
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	st, err := cf.NewStack(reg, addrs, StackOptions{
		Metrics: "transport", Seed: 1, Config: cfg, Topology: tp, ClientZone: zone,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Client.Close() })
	return st, reg
}

// firstProbe runs one lookup for one entry through a fresh stack and
// returns the only server it called.
func firstProbe(t *testing.T, addrs []string, tp *topo.Topology, zone string) int {
	t.Helper()
	st, reg := newStack(t, parseClientFlags(t), addrs, tp, zone)
	res, err := st.Service.PartialLookup(context.Background(), "k", 1)
	if err != nil || len(res.Entries) != 1 || res.Contacted != 1 {
		t.Fatalf("lookup = %+v, %v; want one entry from one server", res, err)
	}
	for i, calls := range reg.Snapshot().PerServer["transport.calls"] {
		if calls == 1 {
			return i
		}
	}
	t.Fatalf("transport.calls = %v, want one call", reg.Snapshot().PerServer["transport.calls"])
	return -1
}

// A client zone orders probes nearest-zone-first with no flag beyond
// -topology and -client-zone: the stack's selector is always on.
func TestStackProbesClientZoneFirst(t *testing.T) {
	cl, err := cluster.NewWired(3, stats.NewRNG(1), "")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	addrs := cl.Addrs()
	tp, err := topo.Parse("3x1x1", len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	// Round-1 puts one entry on each server, so any first probe answers.
	place, _ := newStack(t, parseClientFlags(t), addrs, nil, "")
	if err := place.Service.Place(context.Background(), "k", []string{"a", "b", "c"}); err != nil {
		t.Fatal(err)
	}

	// Without a zone the seeded permutation picks the first server; a
	// client in another server's zone must probe that server first.
	base := firstProbe(t, addrs, nil, "")
	near := (base + 1) % len(addrs)
	if got := firstProbe(t, addrs, tp, tp.ZoneOf(near)); got != near {
		t.Fatalf("client in %s probed server %d first, want %d (the seeded order starts at %d)",
			tp.ZoneOf(near), got, near, base)
	}
}

// The service's default config and lookup retry policy come from the
// parsed flags.
func TestStackTakesConfigAndRetryFromFlags(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	down := ln.Addr().String()
	ln.Close()

	cf := parseClientFlags(t, "-scheme", "hash", "-y", "1", "-hash-seed", "7", "-retries", "3", "-backoff", "1ms", "-timeout", "1s")
	st, reg := newStack(t, cf, []string{down}, nil, "")
	if got, want := st.Service.ConfigFor("k"), (wire.Config{Scheme: wire.Hash, Y: 1, Seed: 7}); got != want {
		t.Fatalf("default config = %+v, want %+v", got, want)
	}
	if _, err := st.Service.PartialLookup(context.Background(), "k", 1); err == nil {
		t.Fatal("lookup against a refused address succeeded")
	}
	snap := reg.Snapshot()
	if got := snap.PerServer["transport.calls"][0]; got != 3 {
		t.Errorf("transport.calls = %d, want 3 (-retries 3)", got)
	}
	if got := snap.Counters["lookup.retries"]; got != 2 {
		t.Errorf("lookup.retries = %d, want 2", got)
	}
}
