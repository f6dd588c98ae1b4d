package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/node"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
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
	Durability *node.Durability // nil for a volatile member
	Addr       string           // where the server listens
	Registry   *telemetry.Registry

	srv      *transport.Server
	repairer *node.Repairer
}

// Peers is the member list a View resizes: a member's mux client, or an
// in-process member's view of the network (transport.Chaos.View).
type Peers interface {
	transport.Caller
	Addrs() []string
	AddServer(addr string) int
	RemoveServer(server int)
	Close() error
}

// View is a holder's view of the cluster: Peers, the member addresses
// its calls go to in slot order, and optionally the Selector scoring
// them and the Node they carry. Its Grow and Compact are the one step
// through which every holder applies a committed membership update to
// its member list, selector and node id: each node, in process or
// listening, as its node.Host, and plsproxy on its backend. A node
// fits its own topology.
type View struct {
	Peers    Peers
	Selector *selector.Selector // nil: nothing to resize
	Node     *node.Node         // nil: no id to follow
	left     chan struct{}      // closed once Node has committed its own drain
	once     sync.Once
}

// NewView returns the view over peers; sel and nd may be nil.
func NewView(peers Peers, sel *selector.Selector, nd *node.Node) *View {
	return &View{Peers: peers, Selector: sel, Node: nd, left: make(chan struct{})}
}

// NewMember builds member id of the cluster at addrs and starts it
// listening. With dataDir set it recovers the node from it first, so no
// request is served from half-recovered state. Close shuts it down.
func NewMember(id int, rng *stats.RNG, addrs []string, dataDir string, o MemberOptions) (*Member, error) {
	if id < 0 || id >= len(addrs) {
		return nil, fmt.Errorf("cluster: member %d out of range for %d addresses", id, len(addrs))
	}
	m := &Member{View: NewView(nil, nil, node.New(id, rng)), Registry: telemetry.NewRegistry()}
	nd, reg := m.Node, m.Registry
	fail := func(err error) (*Member, error) {
		if o.Listener != nil {
			o.Listener.Close()
		}
		return nil, errors.Join(err, m.Close(context.Background()))
	}
	nd.Instrument(telemetry.NewNodeMetrics(reg, len(addrs)))
	nd.SetTopology(o.Topology)
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
	nd.Attach(m.peers(addrs, o))
	nd.SetHost(m.View)
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

// peers builds the path the node's messages take to the other members,
// bottom up: its own mux client, the network's faults if any, the peer.*
// counters, the selector, retries. Below the retries, every attempt is
// one call in peer.calls and one sample for the selector.
func (m *Member) peers(addrs []string, o MemberOptions) transport.Caller {
	tm := telemetry.NewTransportMetrics(m.Registry, "peer", len(addrs))
	opts := []transport.ClientOption{transport.WithClientMetrics(tm)}
	if o.PeerTimeout > 0 {
		opts = append(opts, transport.WithTimeout(o.PeerTimeout))
	}
	client := transport.NewClient(addrs, opts...)
	m.Peers = client
	var caller transport.Caller = client
	if o.Chaos != nil {
		caller = o.Chaos.Over(client, addrs[m.Node.ID()])
	}
	// Fan-out is fixed by placement: the selector only observes.
	m.Selector = selector.New(len(addrs), selector.Options{Metrics: telemetry.NewSelectorMetrics(m.Registry)})
	caller = selector.Observe(transport.Instrument(caller, tm), m.Selector)
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
			h := m.Selector.Health()
			out := make([]int64, len(h))
			for i := range h {
				out[i] = f(h[i])
			}
			return out
		})
	}
	if o.PeerRetries > 1 { // no hedging: an update is no request to duplicate
		caller = transport.NewRetry(caller, transport.RetryPolicy{Attempts: o.PeerRetries, Backoff: 25 * time.Millisecond},
			stats.NewRNG(uint64(m.Node.ID())), nil)
	}
	return caller
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

// Members returns the view's member addresses (node.Host).
func (v *View) Members() []string { return v.Peers.Addrs() }

// Grow runs before the node's sweep (node.Host): a join's new members
// join the view and the selector, so the sweep can address them. A
// view that has the post-change members already, a joiner's or a
// fresh member's adopting the update, is left alone.
func (v *View) Grow(u wire.MembershipUpdate) {
	have := v.Peers.NumServers()
	if u.Leaving >= 0 || have >= len(u.Addrs) {
		return
	}
	for _, addr := range u.Addrs[have:] {
		v.Peers.AddServer(addr)
	}
	if v.Selector != nil {
		v.Selector.Resize(len(u.Addrs))
	}
}

// Compact drops a drain's member from the view after the node's sweep,
// which addressed pre-drain slots, and renumbers the node — or, on the
// leaver, closes Drained (node.Host). A view that already has the
// post-change members is left alone: a fresh member adopting the
// update has them.
func (v *View) Compact(u wire.MembershipUpdate) {
	switch {
	case u.Leaving < 0 || v.Peers.NumServers() == len(u.Addrs):
	case v.Node != nil && v.Node.ID() == u.Leaving:
		v.once.Do(func() { close(v.left) })
	default:
		// The selector first: its route cache holds pre-drain ids, which
		// a call after RemoveServer would send to the renumbered slot.
		if v.Selector != nil {
			v.Selector.Resize(len(u.Addrs))
		}
		v.Peers.RemoveServer(u.Leaving)
		if v.Node != nil && v.Node.ID() > u.Leaving {
			v.Node.SetID(v.Node.ID() - 1)
		}
	}
}
