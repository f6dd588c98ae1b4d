package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"

	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/transport"
	"repro/internal/wire"
)

// wired is what NewWired adds to a cluster: a member per slot, and the
// mux client that client traffic reaches them over.
type wired struct {
	members []*Member         // by slot, compacted with the slots
	client  *transport.Client // what Caller calls over
	dataDir string            // "" for volatile members
	disks   int               // data directories made so far
	err     error             // what Replace and Drain could not report
}

// NewWired builds the cluster New(n, rng) builds, each server a Member
// on 127.0.0.1:0, so every call crosses a socket unless a node
// addresses itself. With dataDir set, each member logs to a directory
// of its own under it. Close releases everything.
func NewWired(n int, rng *stats.RNG, dataDir string) (*Cluster, error) {
	c, rngs := newCluster(n, rng)
	c.wired = &wired{client: transport.NewClient(nil), dataDir: dataDir}
	c.caller = c.chaos.Over(c.wired.client, func() int { return transport.ClientOrigin })
	lns := make([]net.Listener, n) // each a member's once it starts
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], c.addrs[i] = ln, ln.Addr().String()
		c.wired.client.AddServer(c.addrs[i])
	}
	for i, ln := range lns {
		lns[i] = nil
		m, err := c.startMember(i, rngs[i], c.addrs, ln)
		if err != nil {
			return nil, errors.Join(err, c.Close())
		}
		c.wired.members = append(c.wired.members, m)
		c.nodes[i] = m.Node
	}
	return c, nil
}

// Member returns the member in slot i of a wired cluster; nil in
// process.
func (c *Cluster) Member(i int) *Member {
	if c.wired == nil {
		return nil
	}
	return c.wired.members[i]
}

// Close releases what NewWired holds; it does nothing in process.
func (c *Cluster) Close() error {
	w := c.wired
	if w == nil {
		return nil
	}
	err := w.err
	w.client.Close()
	for _, m := range w.members {
		err = errors.Join(err, m.Close(context.Background()))
	}
	return err
}

// startMember starts a member for slot i serving on ln, with a log in a
// fresh directory when the cluster keeps them. store.SyncNever survives
// the process crash a test can stage, without a disk's fsync.
func (c *Cluster) startMember(i int, rng *stats.RNG, addrs []string, ln net.Listener) (*Member, error) {
	w, dir := c.wired, ""
	if w.dataDir != "" {
		dir = filepath.Join(w.dataDir, fmt.Sprintf("node-%d", w.disks))
		w.disks++
	}
	m, err := NewMember(i, rng, addrs, dir, MemberOptions{
		Listener: ln, Fsync: store.SyncNever, Topology: c.topo, Chaos: c.chaos,
	})
	if err == nil && c.nm != nil {
		m.Node.Instrument(c.nm)
	}
	return m, err
}

// replaceMember shuts slot i's member down and starts a fresh one at its
// address (a failure to is Close's error). Every client then drops its
// connections, so no call meets the dead server's socket; the dead node,
// for whoever still holds it (a repairer), calls over the clients'.
func (c *Cluster) replaceMember(i int, rng *stats.RNG) *node.Node {
	w, dead := c.wired, c.wired.members[i]
	err := dead.Close(context.Background())
	dead.Node.Attach(c.chaos.Over(w.client, dead.Node.ID))
	m, serr := c.startMember(i, rng, c.Addrs(), nil)
	if w.err = errors.Join(w.err, err, serr); serr != nil {
		m = &Member{Node: node.New(i, rng)} // no server reaches it, as a dead one
	}
	w.members[i] = m
	w.client.Close()
	for _, o := range w.members {
		if o.Client != nil {
			o.Client.Close()
		}
	}
	return m.Node
}

// joinMember starts a member in the next slot, listening on an address
// of its own, and has the highest slot admit it. Each member grows its
// own view as it commits; the cluster's view follows once all have.
func (c *Cluster) joinMember(ctx context.Context, rng *stats.RNG) (*node.Node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	i, addr := len(c.nodes), ln.Addr().String()
	m, err := c.startMember(i, rng, append(c.Addrs(), addr), ln)
	if err != nil {
		return nil, err
	}
	c.chaos.Add(nil) // the sweeps reach the joiner through the network
	if err := c.change(ctx, i-1, wire.Join{Addr: addr}); err != nil {
		c.chaos.Remove(i)
		return nil, errors.Join(err, m.Close(ctx))
	}
	w := c.wired
	w.members = append(w.members, m)
	c.mu.Lock()
	c.nodes = append(c.nodes, m.Node)
	c.addrs = append(c.addrs, addr)
	c.base = append(c.base, 0)
	c.mu.Unlock()
	w.client.AddServer(addr)
	fitTopology(c.topo, c.last)
	c.epoch.Add(1)
	return m.Node, nil
}
