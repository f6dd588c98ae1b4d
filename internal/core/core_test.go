package core_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/stats"
)

func newService(t *testing.T, n int, opts ...core.Option) (*core.Service, *cluster.Cluster) {
	t.Helper()
	return serve(t, cluster.New(n, stats.NewRNG(7)), opts...)
}

// newWiredService is newService over a wired cluster built from the
// same seed, which the test closes: every call crosses a socket.
func newWiredService(t *testing.T, n int, opts ...core.Option) (*core.Service, *cluster.Cluster) {
	t.Helper()
	cl, err := cluster.NewWired(n, stats.NewRNG(7), "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	return serve(t, cl, opts...)
}

func serve(t *testing.T, cl *cluster.Cluster, opts ...core.Option) (*core.Service, *cluster.Cluster) {
	t.Helper()
	svc, err := core.NewService(cl.Caller(), append([]core.Option{core.WithSeed(3)}, opts...)...)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return svc, cl
}

func TestNewServiceValidation(t *testing.T) {
	if _, err := core.NewService(nil); err == nil {
		t.Fatal("nil caller accepted")
	}
	cl := cluster.New(3, stats.NewRNG(1))
	if _, err := core.NewService(cl.Caller(), core.WithDefaultConfig(core.Config{})); err == nil {
		t.Fatal("invalid default config accepted")
	}
	if _, err := core.NewService(cl.Caller(),
		core.WithKeyConfig("k", core.Config{Scheme: core.RoundRobin, Y: 9})); err == nil {
		t.Fatal("invalid per-key config accepted")
	}
}

func TestConfigSelectionPrecedence(t *testing.T) {
	pinned := core.Config{Scheme: core.Fixed, X: 5}
	classified := core.Config{Scheme: core.Hash, Y: 2}
	fallback := core.Config{Scheme: core.FullReplication}
	svc, _ := newService(t, 4,
		core.WithDefaultConfig(fallback),
		core.WithKeyConfig("pinned", pinned),
		core.WithClassifier(func(key string) (core.Config, bool) {
			if strings.HasPrefix(key, "hash/") {
				return classified, true
			}
			return core.Config{}, false
		}),
	)
	if got := svc.ConfigFor("pinned"); got != pinned {
		t.Fatalf("pinned config = %+v", got)
	}
	if got := svc.ConfigFor("hash/x"); got != classified {
		t.Fatalf("classified config = %+v", got)
	}
	if got := svc.ConfigFor("other"); got != fallback {
		t.Fatalf("fallback config = %+v", got)
	}
	// A classifier returning an invalid config falls back.
	svc2, _ := newService(t, 4,
		core.WithDefaultConfig(fallback),
		core.WithClassifier(func(string) (core.Config, bool) {
			return core.Config{Scheme: core.RoundRobin, Y: 99}, true
		}),
	)
	if got := svc2.ConfigFor("x"); got != fallback {
		t.Fatalf("invalid classified config not ignored: %+v", got)
	}
}

func TestSetKeyConfig(t *testing.T) {
	svc, _ := newService(t, 4)
	cfg := core.Config{Scheme: core.Fixed, X: 3}
	if err := svc.SetKeyConfig("k", cfg); err != nil {
		t.Fatal(err)
	}
	if got := svc.ConfigFor("k"); got != cfg {
		t.Fatalf("ConfigFor = %+v", got)
	}
	if err := svc.SetKeyConfig("k", core.Config{}); err == nil {
		t.Fatal("invalid SetKeyConfig accepted")
	}
}

func TestMultiKeyIsolation(t *testing.T) {
	ctx := context.Background()
	svc, cl := newService(t, 5,
		core.WithKeyConfig("full", core.Config{Scheme: core.FullReplication}),
		core.WithKeyConfig("round", core.Config{Scheme: core.RoundRobin, Y: 2}),
	)
	if err := svc.Place(ctx, "full", entry.Synthetic(10)); err != nil {
		t.Fatal(err)
	}
	if err := svc.Place(ctx, "round", []core.Entry{"r1", "r2", "r3"}); err != nil {
		t.Fatal(err)
	}
	if got := cl.TotalStorage("full"); got != 50 {
		t.Fatalf("full storage = %d, want 50", got)
	}
	if got := cl.TotalStorage("round"); got != 6 {
		t.Fatalf("round storage = %d, want 6", got)
	}
	res, err := svc.PartialLookup(ctx, "round", 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Entries {
		if !strings.HasPrefix(string(v), "r") {
			t.Fatalf("round lookup leaked entry %s from another key", v)
		}
	}
}

func TestInvalidEntriesRejected(t *testing.T) {
	svc, _ := newService(t, 3)
	ctx := context.Background()
	if err := svc.Place(ctx, "k", []core.Entry{"ok", ""}); err == nil {
		t.Fatal("empty entry in place accepted")
	}
	if err := svc.Add(ctx, "k", ""); err == nil {
		t.Fatal("empty add accepted")
	}
	if err := svc.Delete(ctx, "k", ""); err == nil {
		t.Fatal("empty delete accepted")
	}
}

func TestPreferenceLookup(t *testing.T) {
	ctx := context.Background()
	svc, _ := newService(t, 5,
		core.WithDefaultConfig(core.Config{Scheme: core.FullReplication}))
	entries := make([]core.Entry, 50)
	for i := range entries {
		entries[i] = core.Entry("srv-" + strconv.Itoa(i))
	}
	if err := svc.Place(ctx, "k", entries); err != nil {
		t.Fatal(err)
	}
	// Cost = numeric suffix: the best t entries are srv-0..srv-4.
	cost := func(v core.Entry) float64 {
		n, _ := strconv.Atoi(strings.TrimPrefix(string(v), "srv-"))
		return float64(n)
	}
	// Full replication with overfetch spanning everything gives the
	// exact top-t.
	res, err := svc.PreferenceLookup(ctx, "k", 5, 10, cost)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != 5 {
		t.Fatalf("returned %d entries, want 5", len(res.Entries))
	}
	for i, v := range res.Entries {
		if want := core.Entry("srv-" + strconv.Itoa(i)); v != want {
			t.Fatalf("entry %d = %s, want %s", i, v, want)
		}
	}
	// Nil cost function is rejected.
	if _, err := svc.PreferenceLookup(ctx, "k", 5, 2, nil); err == nil {
		t.Fatal("nil cost accepted")
	}
	// Overfetch below 1 still returns t entries.
	res, err = svc.PreferenceLookup(ctx, "k", 3, 0.1, cost)
	if err != nil || len(res.Entries) != 3 {
		t.Fatalf("overfetch<1: %v, %d entries", err, len(res.Entries))
	}
}

func TestServiceDeterministicWithSeed(t *testing.T) {
	run := func() []core.Entry {
		cl := cluster.New(5, stats.NewRNG(7))
		svc, err := core.NewService(cl.Caller(), core.WithSeed(11),
			core.WithDefaultConfig(core.Config{Scheme: core.RandomServer, X: 10}))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if err := svc.Place(ctx, "k", entry.Synthetic(40)); err != nil {
			t.Fatal(err)
		}
		res, err := svc.PartialLookup(ctx, "k", 8)
		if err != nil {
			t.Fatal(err)
		}
		return res.Entries
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("results differ at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestLookupUnderFailures(t *testing.T) {
	ctx := context.Background()
	svc, cl := newService(t, 6,
		core.WithDefaultConfig(core.Config{Scheme: core.RoundRobin, Y: 3}))
	if err := svc.Place(ctx, "k", entry.Synthetic(30)); err != nil {
		t.Fatal(err)
	}
	cl.Fail(1)
	cl.Fail(4)
	res, err := svc.PartialLookup(ctx, "k", 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfied(10) {
		t.Fatalf("lookup under failures returned %d entries", len(res.Entries))
	}
}
