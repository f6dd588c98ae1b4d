package core_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// retryLookupTrace runs 201 seeded lookups through a 3-attempt retry
// policy over an 8-server cluster whose servers 2 and 5 drop 30% of
// calls, and records per lookup the entries in order, the servers
// contacted, and the retries spent. Hedging stays off: when a hedge
// fires depends on timing, not on the seeds.
func retryLookupTrace(t *testing.T) string {
	t.Helper()
	pol := core.LookupPolicy{Retry: transport.RetryPolicy{Attempts: 3, Backoff: 50 * time.Microsecond}}
	var b strings.Builder
	for _, tc := range []struct {
		cfg    core.Config
		target int
	}{
		{core.Config{Scheme: core.RoundRobin, Y: 2}, 15},
		{core.Config{Scheme: core.Hash, Y: 2}, 15},
		{core.Config{Scheme: core.RandomServer, X: 4}, 6},
	} {
		cl := cluster.New(8, stats.NewRNG(29))
		lm := telemetry.NewLookupMetrics(telemetry.NewRegistry())
		svc, err := core.NewService(cl.Caller(),
			core.WithSeed(30),
			core.WithDefaultConfig(tc.cfg),
			core.WithLookupMetrics(lm),
			core.WithLookupPolicy(pol))
		if err != nil {
			t.Fatalf("NewService(%v): %v", tc.cfg, err)
		}
		if err := svc.Place(context.Background(), "k", entry.Synthetic(40)); err != nil {
			t.Fatalf("Place(%v): %v", tc.cfg, err)
		}
		cl.Chaos().SetDropRate(2, 0.3)
		cl.Chaos().SetDropRate(5, 0.3)
		for i := 0; i < 67; i++ {
			before := lm.Retries.Value()
			res, err := svc.PartialLookup(context.Background(), "k", tc.target)
			fmt.Fprintf(&b, "%v #%d: [%s] contacted=%d retries=%d err=%v\n", tc.cfg, i,
				strings.Join(res.Entries, " "), res.Contacted, lm.Retries.Value()-before, err)
		}
	}
	return b.String()
}

// TestRetryLookupsGolden pins the retry layer's seeded behaviour: the
// golden was recorded before core's own retry loop gave way to
// transport.Retry, so a difference means a moved RNG draw or a changed
// retry decision, not a file to regenerate.
func TestRetryLookupsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/golden-retry-lookups.txt")
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(retryLookupTrace(t), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := range max(len(gotLines), len(wantLines)) {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
