package core_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/entry"
	"repro/internal/wire"
)

// schemes is one configuration of each placement scheme.
var schemes = []core.Config{
	{Scheme: core.FullReplication}, {Scheme: core.Fixed, X: 10}, {Scheme: core.RandomServer, X: 10},
	{Scheme: core.RoundRobin, Y: 2}, {Scheme: core.Hash, Y: 2, Seed: 77},
	{Scheme: core.MultiProbe, Y: 2, Seed: 77}, {Scheme: core.KeyPartition},
}

// churn places 30 entries under "k", then adds five and deletes five
// of the placed ones.
func churn(t *testing.T, svc *core.Service) {
	t.Helper()
	ctx := context.Background()
	placed := entry.Synthetic(30)
	if err := svc.Place(ctx, "k", placed); err != nil {
		t.Fatalf("Place: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := svc.Add(ctx, "k", core.Entry(fmt.Sprintf("tcp-added-%d", i))); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := svc.Delete(ctx, "k", placed[i]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
}

// dumps returns every server's entries for "k", in its order.
func dumps(t *testing.T, cl *cluster.Cluster) [][]string {
	t.Helper()
	out := make([][]string, cl.N())
	for s := range out {
		reply, err := cl.Caller().Call(context.Background(), s, wire.Dump{Key: "k"})
		if err != nil {
			t.Fatalf("Dump %d: %v", s, err)
		}
		out[s] = reply.(wire.DumpReply).Entries
	}
	return out
}

// TestTCPClusterAllSchemes runs the full protocol suite over real
// sockets: place, adds, deletes — including the Round-Robin migration,
// which exercises server-to-server RPC chains (client → coordinator →
// holders → head server → holders) — and a partial lookup after them.
func TestTCPClusterAllSchemes(t *testing.T) {
	for _, cfg := range schemes {
		t.Run(cfg.String(), func(t *testing.T) {
			svc, cl := newWiredService(t, 4, core.WithSeed(5), core.WithDefaultConfig(cfg))
			churn(t, svc)
			res, err := svc.PartialLookup(context.Background(), "k", 8)
			if err != nil || !res.Satisfied(8) {
				t.Fatalf("lookup after churn: %d entries, %v; want >= 8", len(res.Entries), err)
			}
			for s, es := range dumps(t, cl) {
				if slices.Contains(es, "v1") {
					t.Fatalf("server %d still holds deleted v1", s)
				}
			}
		})
	}
}

// TestTCPAndInprocAgree: the wire changes nothing. Under every scheme,
// a wired and an in-process cluster built from one seed hold, server by
// server, the same entries in the same order after the same seeded
// place, adds and deletes.
func TestTCPAndInprocAgree(t *testing.T) {
	for _, cfg := range schemes {
		t.Run(cfg.String(), func(t *testing.T) {
			inproc, cl := newService(t, 5, core.WithDefaultConfig(cfg))
			churn(t, inproc)
			wired, wcl := newWiredService(t, 5, core.WithDefaultConfig(cfg))
			churn(t, wired)
			if got, want := dumps(t, wcl), dumps(t, cl); !reflect.DeepEqual(got, want) {
				t.Fatalf("wired servers hold %q, in process %q", got, want)
			}
		})
	}
}
