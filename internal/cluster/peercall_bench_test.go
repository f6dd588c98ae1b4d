package cluster_test

import (
	"context"
	"fmt"
	"net"
	"testing"

	"repro/internal/cluster"
	"repro/internal/node"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// BenchmarkWiredPeerCall splits what one wired peer call costs, one
// layer at a time, between two listening members as plsd builds them:
// the same StoreOne to member 1 through a bare mux client, then with
// transport.Instrument's peer.* counters, then with selector.Observe's
// scoreboard, and last as member 0's node makes it: a KeyPartition add
// homed on member 1, which Handle dispatches under the view it reads,
// looks its key up, and sends through the member's own stack of those
// three layers.
func BenchmarkWiredPeerCall(b *testing.B) {
	addrs := make([]string, 2)
	members := make([]*cluster.Member, 2)
	lns := make([]net.Listener, 2)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	for i := range members {
		m, err := cluster.NewMember(i, stats.NewRNG(uint64(i)+1), addrs, "", cluster.MemberOptions{Listener: lns[i]})
		if err != nil {
			b.Fatal(err)
		}
		members[i] = m
		b.Cleanup(func() { m.Close(context.Background()) })
	}
	cfg := wire.Config{Scheme: wire.KeyPartition}
	key := "k"
	for i := 0; node.PartitionServer(key, len(addrs)) != 1; i++ {
		key = fmt.Sprintf("k%d", i)
	}
	store := wire.StoreOne{Key: key, Config: cfg, Entry: "v"}

	client := transport.NewClient(addrs[1:])
	b.Cleanup(func() { client.Close() })
	reg := telemetry.NewRegistry()
	instrumented := transport.Instrument(client, telemetry.NewTransportMetrics(reg, "peer", 1))
	observed := selector.Observe(instrumented, selector.New(1, selector.Options{Metrics: telemetry.NewSelectorMetrics(reg)}))
	ctx := context.Background()
	for _, layer := range []struct {
		name string
		call func() (wire.Message, error)
	}{
		{"mux", func() (wire.Message, error) { return client.Call(ctx, 0, store) }},
		{"+instrument", func() (wire.Message, error) { return instrumented.Call(ctx, 0, store) }},
		{"+observe", func() (wire.Message, error) { return observed.Call(ctx, 0, store) }},
		{"+member", func() (wire.Message, error) {
			return members[0].Node.Handle(ctx, wire.Add{Key: key, Config: cfg, Entry: "v"}), nil
		}},
	} {
		b.Run(layer.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				reply, err := layer.call()
				if ack, _ := reply.(wire.Ack); err != nil || ack.Err != "" {
					b.Fatalf("%v %v", err, ack.Err)
				}
			}
		})
	}
}
