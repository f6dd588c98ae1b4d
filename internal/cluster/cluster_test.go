package cluster_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/entry"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

func placeFull(t *testing.T, cl *cluster.Cluster, h int) []entry.Entry {
	t.Helper()
	entries := entry.Synthetic(h)
	es := make([]string, h)
	for i, v := range entries {
		es[i] = string(v)
	}
	reply, err := cl.Caller().Call(context.Background(), 0, wire.Place{
		Key: "k", Config: wire.Config{Scheme: wire.FullReplication}, Entries: es,
	})
	if err != nil {
		t.Fatalf("place: %v", err)
	}
	if ack := reply.(wire.Ack); ack.Err != "" {
		t.Fatalf("place ack: %s", ack.Err)
	}
	return entries
}

func TestClusterBasics(t *testing.T) {
	cl := cluster.New(4, stats.NewRNG(1))
	if cl.N() != 4 || cl.Caller().NumServers() != 4 {
		t.Fatalf("N = %d", cl.N())
	}
	placeFull(t, cl, 7)
	if got := cl.TotalStorage("k"); got != 28 {
		t.Fatalf("TotalStorage = %d, want 28", got)
	}
	snap := cl.Snapshot("k")
	if len(snap) != 4 {
		t.Fatalf("snapshot length %d", len(snap))
	}
	for i, s := range snap {
		if s.Len() != 7 {
			t.Fatalf("snapshot[%d] has %d entries", i, s.Len())
		}
	}
}

func TestClusterFailureInjection(t *testing.T) {
	cl := cluster.New(3, stats.NewRNG(2))
	placeFull(t, cl, 2)
	cl.Fail(1)
	if cl.Alive(1) || !cl.Alive(0) {
		t.Fatal("Alive flags wrong")
	}
	if cl.AliveCount() != 2 {
		t.Fatalf("AliveCount = %d", cl.AliveCount())
	}
	_, err := cl.Caller().Call(context.Background(), 1, wire.Ping{})
	if !errors.Is(err, transport.ErrServerDown) {
		t.Fatalf("call to failed server = %v", err)
	}
	// Failed server state is frozen and visible in Snapshot.
	if len(cl.Snapshot("k")) != 3 {
		t.Fatal("Snapshot wrong length")
	}
	cl.Recover(1)
	if cl.AliveCount() != 3 {
		t.Fatal("Recover did not restore")
	}
}

func TestClusterMessageCounters(t *testing.T) {
	cl := cluster.New(5, stats.NewRNG(3))
	placeFull(t, cl, 3)
	// Place cost: 1 client request + 5 broadcast receipts.
	if got := cl.Messages(); got != 6 {
		t.Fatalf("Messages after place = %d, want 6", got)
	}
	cl.ResetMessages()
	if cl.Messages() != 0 {
		t.Fatal("ResetMessages failed")
	}
	// Snapshots must not count messages.
	cl.Snapshot("k")
	cl.TotalStorage("k")
	if cl.Messages() != 0 {
		t.Fatal("snapshot perturbed message counters")
	}
}

// TestMessageCountersFollowSlotsAcrossReplaceAndDrain: a server's
// processed count is what its node handled, a message it delivered to
// itself in process included, and what the nodes it replaced handled;
// the count stays with the slot when the node is replaced and moves
// with it when a lower slot is drained away.
func TestMessageCountersFollowSlotsAcrossReplaceAndDrain(t *testing.T) {
	cl := cluster.New(4, stats.NewRNG(3))
	reg := telemetry.NewRegistry()
	cl.EnableTelemetry(reg)
	placeFull(t, cl, 3)
	// Server 0 took the client's Place and its own share of the
	// broadcast; servers 1..3 their shares.
	perServer := func() []int64 {
		out := make([]int64, cl.N())
		for i := range out {
			out[i] = cl.ProcessedBy(i)
		}
		return out
	}
	if got, want := perServer(), []int64{2, 1, 1, 1}; !reflect.DeepEqual(got, want) {
		t.Fatalf("ProcessedBy after place = %v, want %v", got, want)
	}
	if local := reg.Snapshot().PerServer["node.local_deliveries"][0]; local != 1 {
		t.Fatalf("server 0 delivered %d messages to itself, want its share of the broadcast", local)
	}

	// Ten more broadcasts from server 3: each is the client's Add, one
	// message to each other server and one server 3 keeps in process.
	for i := 0; i < 10; i++ {
		reply, err := cl.Caller().Call(context.Background(), 3, wire.Add{
			Key: "k", Config: wire.Config{Scheme: wire.FullReplication}, Entry: fmt.Sprintf("w%d", i),
		})
		if ack, ok := reply.(wire.Ack); err != nil || !ok || ack.Err != "" {
			t.Fatalf("add: %#v, %v", reply, err)
		}
	}
	want := []int64{12, 11, 11, 21}
	if got := perServer(); !reflect.DeepEqual(got, want) || cl.Messages() != 55 {
		t.Fatalf("after ten adds: ProcessedBy %v, Messages %d, want %v and 55", got, cl.Messages(), want)
	}

	// A replacement node starts from zero; the slot's count does not.
	cl.Replace(3, stats.NewRNG(9))
	if got := perServer(); !reflect.DeepEqual(got, want) || cl.Messages() != 55 {
		t.Fatalf("after Replace(3): ProcessedBy %v, Messages %d, want %v and 55", got, cl.Messages(), want)
	}

	// Slot 1 drained: slots 2 and 3 are 1 and 2 now and bring their counts
	// along, the replaced node's share included. The drain's own handful
	// of messages lands on top, so what a slot carried over is a floor —
	// one that slot 2 misses by ten if the replaced node's share stays
	// behind at index 3.
	if _, err := cl.Drain(context.Background(), 1); err != nil {
		t.Fatalf("Drain(1): %v", err)
	}
	for s, carried := range []int64{want[0], want[2], want[3]} {
		if got := cl.ProcessedBy(s); got < carried || got > carried+8 {
			t.Errorf("slot %d processed %d after the drain, carried over %d", s, got, carried)
		}
	}

	cl.ResetMessages()
	if got := cl.Messages(); got != 0 {
		t.Fatalf("Messages after ResetMessages = %d, want 0", got)
	}
	for i, p := range perServer() {
		if p != 0 {
			t.Errorf("ProcessedBy(%d) after ResetMessages = %d, want 0", i, p)
		}
	}
}

func TestClusterDeterministicFromSeed(t *testing.T) {
	build := func() string {
		cl := cluster.New(6, stats.NewRNG(99))
		es := make([]string, 50)
		for i, v := range entry.Synthetic(50) {
			es[i] = string(v)
		}
		cl.Caller().Call(context.Background(), 0, wire.Place{
			Key: "k", Config: wire.Config{Scheme: wire.RandomServer, X: 10}, Entries: es,
		})
		out := ""
		for _, s := range cl.Snapshot("k") {
			out += s.String() + ";"
		}
		return out
	}
	if build() != build() {
		t.Fatal("same-seed clusters produced different placements")
	}
}

func TestClusterNewPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	cluster.New(0, stats.NewRNG(1))
}

// TestMeterCountsWhatNodesHandle, in process and wired: a message a
// node addresses to itself counts once, and one the network drops,
// partitions away or addresses to a down server counts zero, because
// only a node's Handle counts; a replacement's adoption of the member
// epoch counts zero too.
func TestMeterCountsWhatNodesHandle(t *testing.T) {
	for _, mode := range []struct {
		name string
		new  func(*testing.T) *cluster.Cluster
	}{
		{"in-process", func(*testing.T) *cluster.Cluster { return cluster.New(3, stats.NewRNG(5)) }},
		{"wired", func(t *testing.T) *cluster.Cluster { return newWired(t, 3, stats.NewRNG(5)) }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			cl := mode.new(t)
			reg := telemetry.NewRegistry()
			cl.EnableTelemetry(reg)
			ctx := context.Background()
			perServer := func() []int64 {
				out := make([]int64, cl.N())
				for i := range out {
					out[i] = cl.ProcessedBy(i)
				}
				return out
			}
			// The client's Place, and server 0's broadcast: one message
			// to each server, its own share handled in process.
			placeFull(t, cl, 2)
			if got, want := perServer(), []int64{2, 1, 1}; !reflect.DeepEqual(got, want) {
				t.Fatalf("after place: ProcessedBy %v, want %v", got, want)
			}
			if local := reg.Snapshot().PerServer["node.local_deliveries"][0]; local != 1 {
				t.Fatalf("server 0 delivered %d messages to itself, want 1", local)
			}

			cl.ResetMessages()
			cl.Chaos().SetDropRate(1, 1)
			cl.Chaos().Partition(transport.ClientOrigin, 2)
			for _, s := range []int{1, 2} {
				if _, err := cl.Caller().Call(ctx, s, wire.Ping{}); !errors.Is(err, transport.ErrInjected) {
					t.Fatalf("call to server %d = %v, want an injected fault", s, err)
				}
			}
			cl.Chaos().SetDropRate(1, 0)
			cl.Fail(1)
			if _, err := cl.Caller().Call(ctx, 1, wire.Ping{}); !errors.Is(err, transport.ErrServerDown) {
				t.Fatalf("call to down server 1 = %v, want ErrServerDown", err)
			}
			if got := cl.Messages(); got != 0 {
				t.Fatalf("dropped, partitioned and down-target calls counted %d messages, want 0 (ProcessedBy %v)", got, perServer())
			}

			// A replacement adopts the committed member epoch by a direct
			// Handle, which is not traffic.
			cl.Recover(1)
			cl.Chaos().HealAll()
			if _, err := cl.Join(ctx, stats.NewRNG(6)); err != nil {
				t.Fatalf("Join: %v", err)
			}
			cl.ResetMessages()
			cl.Replace(1, stats.NewRNG(7))
			if got := cl.Messages(); got != 0 {
				t.Fatalf("Replace after a join counted %d messages, want 0", got)
			}
		})
	}
}
