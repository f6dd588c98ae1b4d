package node_test

import (
	"fmt"
	"testing"

	"repro/internal/entry"
	"repro/internal/plstest"
	"repro/internal/wire"
)

// placeSchemes is one config per placement scheme, and the server a
// place under it may be sent to.
var placeSchemes = []struct {
	cfg     wire.Config
	initial int
}{
	{wire.Config{Scheme: wire.FullReplication}, 1},
	{wire.Config{Scheme: wire.Fixed, X: 10}, 1},
	{wire.Config{Scheme: wire.RandomServer, X: 10}, 1},
	{wire.Config{Scheme: wire.RoundRobin, Y: 2}, 0},
	{wire.Config{Scheme: wire.Hash, Y: 2, Seed: 390}, 1},
	{wire.Config{Scheme: wire.MultiProbe, Y: 2, Seed: 5}, 1},
	{wire.Config{Scheme: wire.KeyPartition}, 1},
}

func syntheticStrings(h int) []string {
	out := make([]string, h)
	for i, v := range entry.Synthetic(h) {
		out[i] = string(v)
	}
	return out
}

// TestPlaceCostsOneMessagePerServer: under every scheme the initial
// server turns a place of h entries into one StoreBatch per server
// (KeyPartition: one in all), whatever h and y are, and a PlaceBatch
// into one envelope per server, whatever the number of keys.
func TestPlaceCostsOneMessagePerServer(t *testing.T) {
	const n, h = 4, 16
	for _, tc := range placeSchemes {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			hn := newHarness(t, n, 31)
			want := int64(n)
			if tc.cfg.Scheme == wire.KeyPartition {
				want = 1
			}
			hn.cl.ResetMessages()
			hn.mustAck(tc.initial, wire.Place{Key: "k", Config: tc.cfg, Entries: syntheticStrings(h)})
			// One of the processed messages is the client's request.
			if got := hn.cl.Messages() - 1; got != want {
				t.Errorf("place of %d entries cost %d server-to-server messages, want %d", h, got, want)
			}

			var batch wire.PlaceBatch
			for k := 0; k < 8; k++ {
				batch.Items = append(batch.Items, wire.Place{Key: fmt.Sprintf("k%d", k), Config: tc.cfg, Entries: syntheticStrings(h)})
			}
			hn.cl.ResetMessages()
			reply := hn.call(tc.initial, batch)
			for i, e := range reply.(wire.BatchAck).Errs {
				if e != "" {
					t.Fatalf("batch item %d: %s", i, e)
				}
			}
			if got := hn.cl.Messages() - 1; got > n {
				t.Errorf("PlaceBatch of 8 keys cost %d server-to-server messages, want at most %d", got, n)
			}
			for k := 0; k < 8; k++ {
				if got := hn.cl.TotalStorage(fmt.Sprintf("k%d", k)); got != hn.cl.TotalStorage("k") {
					t.Errorf("batched key k%d stores %d copies, the standalone key %d", k, got, hn.cl.TotalStorage("k"))
				}
			}
		})
	}
}

// TestPlaceRejectsEmptyEntry: a placed list with an empty entry is
// refused with an error ack by the initial server (standalone or as a
// batch item, whose neighbours still place) and by a server handed the
// StoreBatch directly; the key keeps what it held.
func TestPlaceRejectsEmptyEntry(t *testing.T) {
	const n, wantErr = 4, "node: place with empty entry"
	bad := []string{"a", ""}
	for _, tc := range placeSchemes {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			hn := newHarness(t, n, 32)
			hn.place(tc.initial, tc.cfg, entry.Synthetic(6))
			before := make([]string, n)
			for s := range before {
				before[s] = hn.set(s).String()
			}
			unchanged := func(after string) {
				t.Helper()
				for s := range before {
					if got := hn.set(s).String(); got != before[s] {
						t.Fatalf("%s: server %d holds %s, had %s", after, s, got, before[s])
					}
				}
			}

			if ack := hn.call(tc.initial, wire.Place{Key: "k", Config: tc.cfg, Entries: bad}).(wire.Ack); ack.Err != wantErr {
				t.Fatalf("Place ack %q, want %q", ack.Err, wantErr)
			}
			unchanged("refused Place")

			for s := 0; s < n; s++ {
				if ack := hn.call(s, wire.StoreBatch{Key: "k", Config: tc.cfg, Entries: bad}).(wire.Ack); ack.Err != wantErr {
					t.Fatalf("StoreBatch to server %d: ack %q, want %q", s, ack.Err, wantErr)
				}
			}
			unchanged("refused StoreBatch")

			reply := hn.call(tc.initial, wire.PlaceBatch{Items: []wire.Place{
				{Key: "k", Config: tc.cfg, Entries: bad},
				{Key: "other", Config: tc.cfg, Entries: syntheticStrings(6)},
			}}).(wire.BatchAck)
			if len(reply.Errs) != 2 || reply.Errs[0] != wantErr || reply.Errs[1] != "" {
				t.Fatalf("PlaceBatch acks %q, want [%q \"\"]", reply.Errs, wantErr)
			}
			unchanged("refused batch item")
			if hn.cl.TotalStorage("other") == 0 {
				t.Fatal("the valid item beside a refused one was not placed")
			}

			good := hn.call(0, wire.StoreBatches{Items: []wire.StoreBatch{
				{Key: "k", Config: tc.cfg, Entries: bad},
				{Key: "direct", Config: tc.cfg, Entries: []string{"v1"}},
			}}).(wire.BatchAck)
			if len(good.Errs) != 2 || good.Errs[0] != wantErr || good.Errs[1] != "" {
				t.Fatalf("StoreBatches acks %q, want [%q \"\"]", good.Errs, wantErr)
			}
			unchanged("refused StoreBatches item")
		})
	}
}

// TestPlaceSkipsADownServer: a server that is down while a key is
// placed loses its share and nothing else — every other server holds
// exactly what it holds when all are up — and once it is back the
// repair sweep hands it its share.
func TestPlaceSkipsADownServer(t *testing.T) {
	const n, victim = 6, 3
	entries := entry.Synthetic(30)
	live := liveFrom(entries)
	for _, tc := range []struct {
		cfg     wire.Config
		initial int
	}{
		{wire.Config{Scheme: wire.FullReplication}, 1},
		{wire.Config{Scheme: wire.RoundRobin, Y: 2}, 0},
		{wire.Config{Scheme: wire.Hash, Y: 2, Seed: 390}, 1}, // seed 390: every entry has 2 distinct homes at n=6
		{wire.Config{Scheme: wire.MultiProbe, Y: 2, Seed: 5}, 1},
	} {
		t.Run(tc.cfg.String(), func(t *testing.T) {
			allUp := newHarness(t, n, 33)
			allUp.place(tc.initial, tc.cfg, entries)
			if allUp.set(victim).Len() == 0 {
				t.Fatal("the victim has no share to lose; test proves nothing")
			}

			hn := newHarness(t, n, 33)
			hn.cl.Fail(victim)
			hn.place(tc.initial, tc.cfg, entries)
			for s := 0; s < n; s++ {
				want := allUp.set(s).String()
				if s == victim {
					want = "{}"
				}
				if got := hn.set(s).String(); got != want {
					t.Errorf("server %d holds %s, want %s", s, got, want)
				}
			}

			hn.cl.Recover(victim)
			if st := sweepAll(hn.cl); st.Moved != allUp.set(victim).Len() {
				t.Errorf("sweep moved %d entries, the victim's share is %d", st.Moved, allUp.set(victim).Len())
			}
			if got, want := hn.set(victim).String(), allUp.set(victim).String(); got != want {
				t.Errorf("after the sweep the victim holds %s, want %s", got, want)
			}
			v := plstest.Observe(hn.cl, "k", tc.cfg)
			plstest.Assert(t, "post-sweep structural", v.Check(live))
			plstest.Assert(t, "post-sweep coverage", v.CheckCoverage(live))
		})
	}
}
