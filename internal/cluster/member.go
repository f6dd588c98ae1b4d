package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
)

// MemberOptions shape a member beyond its id, RNG, member list and data
// directory; plsd's flags of the same names set them.
type MemberOptions struct {
	Listener         net.Listener  // served instead of listening on addrs[id]
	PeerTimeout      time.Duration // per peer call; 0 is the client's 5 s
	PeerRetries      int           // attempts per peer call, when > 1
	Topology         *topo.Topology
	RepairInterval   time.Duration // 0: no anti-entropy sweeps
	Fsync            store.SyncPolicy
	SnapshotInterval time.Duration
	Chaos            *transport.Chaos // a wired cluster's faults, above the peer client
}

// Member is one lookup server. As plsd runs it (NewMember) it listens:
// its node with the durable state recovered under its data dir, a
// server, a repairer, and its own view of the cluster (peer client,
// observe-only selector) as the node's Host; its telemetry goes to
// Registry. An in-process cluster's member is its node and its view
// of the network alone.
type Member struct {
	*View
	Node       *node.Node
	Durability *node.Durability // nil for a volatile member
	Addr       string           // where the server listens
	Registry   *telemetry.Registry

	srv      *transport.Server
	repairer *node.Repairer
}

// Peers is the member list a View re-lists: a member's mux client, or
// an in-process member's view of the network (transport.Chaos.View).
type Peers interface {
	transport.Caller
	Addrs() []string
	SetAddrs(addrs []string)
	Close() error
}

// View is a holder's view of the cluster: Peers, the member addresses
// its calls go to in rank order, and optionally the Selector scoring
// them. Its Apply is the one step through which every holder applies a
// committed membership view to its member list and selector: each
// node, in process or listening, as its node.Host, and plsproxy on its
// backend. A node fits its own topology.
type View struct {
	Peers    Peers
	Selector *selector.Selector // nil: nothing to resize
	// pin, set for a node's view, returns the caller the node reaches
	// Peers' current list through, numbered so for good (node.Host).
	pin  func() transport.Caller
	left chan struct{} // closed once the node has committed its own drain
	once sync.Once
}

// NewView returns the view over peers; sel may be nil.
func NewView(peers Peers, sel *selector.Selector) *View {
	return &View{Peers: peers, Selector: sel, left: make(chan struct{})}
}

// NewMember builds member id of the cluster at addrs and starts it
// listening. With dataDir set it recovers the node from it first, so no
// request is served from half-recovered state. Close shuts it down.
func NewMember(id int, rng *stats.RNG, addrs []string, dataDir string, o MemberOptions) (*Member, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("cluster: member %d out of range for %d addresses", id, len(addrs))
	}
	m := &Member{Node: node.New(id, rng), Registry: telemetry.NewRegistry()}
	nd, reg := m.Node, m.Registry
	m.View = m.peers(id, addrs, o)
	fail := func(err error) (*Member, error) {
		if o.Listener != nil {
			o.Listener.Close()
		}
		return nil, errors.Join(err, m.Close(context.Background()))
	}
	nd.Instrument(telemetry.NewNodeMetrics(reg, len(addrs)))
	reg.NewGaugeFunc("node.entries", func() int64 { return int64(nd.EntryCount()) })
	reg.NewGaugeFunc("node.keys", func() int64 { return int64(nd.KeyCount()) })
	if dataDir != "" {
		err := os.MkdirAll(dataDir, 0o755)
		if err == nil {
			m.Durability, err = nd.OpenDurability(dataDir, o.Fsync, o.SnapshotInterval, telemetry.NewWALMetrics(reg))
		}
		if err != nil {
			return fail(fmt.Errorf("recover %s: %w", dataDir, err))
		}
	}
	nd.SetHost(m.View, node.View{Addrs: addrs, Self: id, Topology: o.Topology})
	if o.RepairInterval > 0 {
		// Gated on the selector's failure epoch: a healthy cluster pays nothing.
		m.repairer = node.NewRepairer(nd, node.RepairOptions{
			Interval: o.RepairInterval, Health: m.Selector, Metrics: telemetry.NewRepairMetrics(reg),
		})
		m.repairer.Start()
	}
	m.srv = transport.NewServer(nd)
	m.srv.Instrument(telemetry.NewServerMetrics(reg, "server"))
	var err error
	if o.Listener == nil {
		m.Addr, err = m.srv.Listen(addrs[id])
	} else {
		m.Addr, err = m.srv.Serve(o.Listener)
		o.Listener = nil // the server's, served or not
	}
	if err != nil {
		return fail(err)
	}
	return m, nil
}

// peers builds the member list and the path the node's messages take
// to the other members over it, bottom up: a pin of its own mux
// client's list, the network's faults if any, the peer.* counters, the
// selector, retries. Below the retries, every attempt is one call in
// peer.calls and one sample for the selector.
func (m *Member) peers(id int, addrs []string, o MemberOptions) *View {
	tm := telemetry.NewTransportMetrics(m.Registry, "peer", len(addrs))
	opts := []transport.ClientOption{transport.WithClientMetrics(tm)}
	if o.PeerTimeout > 0 {
		opts = append(opts, transport.WithTimeout(o.PeerTimeout))
	}
	client := transport.NewClient(addrs, opts...)
	// Fan-out is fixed by placement: the selector only observes.
	v := NewView(client, selector.New(len(addrs), selector.Options{Metrics: telemetry.NewSelectorMetrics(m.Registry)}))
	v.pin = func() transport.Caller {
		pinned := client.Pin()
		var caller transport.Caller = pinned
		if o.Chaos != nil {
			caller = o.Chaos.Over(pinned, addrs[id])
		}
		caller = selector.Observe(transport.Instrument(caller, tm), v.Selector)
		if o.PeerRetries > 1 { // no hedging: an update is no request to duplicate
			caller = transport.NewRetry(caller, transport.RetryPolicy{Attempts: o.PeerRetries, Backoff: 25 * time.Millisecond},
				stats.NewRNG(uint64(id)), nil)
		}
		return caller
	}
	for name, f := range map[string]func(selector.ServerHealth) int64{
		"selector.consec_failures": func(h selector.ServerHealth) int64 { return int64(h.ConsecFails) },
		"selector.ewma_ns":         func(h selector.ServerHealth) int64 { return int64(h.EWMA) },
		"selector.open": func(h selector.ServerHealth) (open int64) {
			if h.Open {
				open = 1
			}
			return open
		},
	} {
		// Sized at each snapshot: membership resizes the selector.
		m.Registry.NewGaugeVecFunc(name, func() []int64 {
			h := v.Selector.Health()
			out := make([]int64, len(h))
			for i := range h {
				out[i] = f(h[i])
			}
			return out
		})
	}
	return v
}

// Close shuts the member down in the order an ack needs: in-flight
// requests finish (until ctx ends), then any sweep, then the flush.
func (m *Member) Close(ctx context.Context) error {
	var err error
	if m.srv != nil {
		err = m.srv.Shutdown(ctx)
	}
	if m.repairer != nil {
		m.repairer.Stop()
	}
	if m.Peers != nil {
		m.Peers.Close()
	}
	if m.Durability != nil {
		if ferr := m.Durability.Close(); ferr != nil {
			err = errors.Join(err, fmt.Errorf("flush durable state: %w", ferr))
		}
	}
	return err
}

// Drained is closed once the member has committed its own drain.
func (m *Member) Drained() <-chan struct{} { return m.left }

// Apply adopts the committed view v (node.Host): when its members
// differ from Peers', the selector is resized and Peers re-listed — the
// selector first, as its route cache holds the old numbering, which a
// call after the re-listing would send to the renumbered slot. A node's
// view then gets the caller pinned to the new list; a node that has
// drained, whose v has no rank, gets none, and Drained closes.
func (h *View) Apply(v node.View) transport.Caller {
	if h.pin != nil && v.Self < 0 {
		h.once.Do(func() { close(h.left) })
		return nil
	}
	if !slices.Equal(h.Peers.Addrs(), v.Addrs) {
		if h.Selector != nil {
			h.Selector.Resize(len(v.Addrs))
		}
		h.Peers.SetAddrs(v.Addrs)
	}
	if h.pin == nil {
		return nil
	}
	return h.pin()
}
