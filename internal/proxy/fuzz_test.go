package proxy_test

import (
	"context"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/stats"
	"repro/internal/wire"
)

// FuzzProxyFrame drives the proxy's client-facing frame path with raw
// bytes: classify the frame body, decode the payload, hand whatever
// decodes to Handle. The proxy must never panic and must always answer
// with a message the codec can re-encode, no matter what a client puts
// on the wire.
func FuzzProxyFrame(f *testing.F) {
	seeds := []wire.Message{
		wire.Ping{},
		wire.Lookup{Key: "k", T: 2},
		wire.Lookup{Key: "", T: -1},
		wire.LookupBatch{Items: []wire.Lookup{{Key: "a", T: 1}, {Key: "a", T: 1}}},
		wire.Place{Key: "k", Config: wire.Config{Scheme: wire.RandomServer, X: 2}, Entries: []string{"v"}},
		wire.Place{Key: "k", Config: wire.Config{Scheme: wire.Scheme(99), X: -4}},
		wire.Add{Key: "k", Config: wire.Config{Scheme: wire.Hash, Y: 1}, Entry: "v"},
		wire.Delete{Key: "k", Entry: "v"},
		wire.PlaceBatch{Items: []wire.Place{{Key: "b", Entries: []string{"v", ""}}}},
		wire.AddBatch{Items: []wire.Add{{Key: "b", Entry: "v"}}},
		wire.MembershipUpdate{Epoch: 3, Leaving: -1, Addrs: []string{"h:1", "h:2", "h:3", "h:4", "h:5"}},
		wire.Join{Addr: "h:1"},
		wire.Leave{Server: 2},
		wire.Dump{Key: "k"},
		wire.RepairQuery{},
	}
	for _, msg := range seeds {
		f.Add(wire.Encode(msg))
		f.Add(wire.AppendFrameV2(nil, 7, msg)[4:])
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x01, 0x02})

	cl := cluster.New(4, stats.NewRNG(7))
	svc, err := core.NewService(cl.Caller(),
		core.WithSeed(11),
		core.WithDefaultConfig(core.Config{Scheme: core.RandomServer, X: 2}),
	)
	if err != nil {
		f.Fatal(err)
	}
	px := proxy.New(svc, proxy.Options{CacheEntries: 64, TTL: 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		fb, err := wire.ParseFrameBody(body)
		if err != nil {
			return
		}
		msg, err := wire.Decode(fb.Payload)
		if err != nil {
			return
		}
		reply := px.Handle(context.Background(), msg)
		if reply == nil {
			t.Fatalf("nil reply for %T", msg)
		}
		if got := wire.Encode(reply); len(got) == 0 {
			t.Fatalf("unencodable reply %T for %T", reply, msg)
		}
	})
}
