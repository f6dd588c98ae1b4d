package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"

	"repro/internal/node"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

// wired is what NewWired adds to a cluster: a server per slot, and the
// one mux client the slots' forwarders call them through.
type wired struct {
	client  *transport.Client
	members []*member                   // by slot, compacted with the slots
	dataDir string                      // "" for volatile nodes
	disks   int                         // data directories made so far
	metrics *telemetry.TransportMetrics // the servers', which EnableTelemetry shows
	err     error                       // what Replace could not report
}

// member is the machine in one slot: a server at a fixed address, and
// the node behind it, which Replace swaps for a blank one.
type member struct {
	nd  atomic.Pointer[node.Node]
	srv *transport.Server
	dur *node.Durability // nil for a volatile node
}

func (m *member) Handle(ctx context.Context, msg wire.Message) wire.Message {
	return m.nd.Load().Handle(ctx, msg)
}

// forward is slot i's handler on a wired cluster's in-process network,
// past its faults: it carries the call to server i, whose node counts
// it, and a failed one back as an Ack (Handle returns no error).
type forward struct {
	client *transport.Client
	slot   int
}

func (f forward) Handle(ctx context.Context, msg wire.Message) wire.Message {
	reply, err := f.client.Call(ctx, f.slot, msg)
	if err != nil {
		return wire.Ack{Err: err.Error()}
	}
	return reply
}

// NewWired builds the cluster New(n, rng) builds and puts each node
// behind a transport.Server on 127.0.0.1:0, so every call crosses a
// socket unless a node addresses itself. With dataDir set, each node
// logs to a directory of its own under it. Close releases the servers,
// the sockets and the logs.
func NewWired(n int, rng *stats.RNG, dataDir string) (*Cluster, error) {
	c := New(n, rng)
	c.wired = &wired{
		client:  transport.NewClient(nil),
		dataDir: dataDir,
		metrics: telemetry.NewServerMetrics(telemetry.NewRegistry(), "server"),
	}
	for i, nd := range c.nodes {
		addr, err := c.wired.serve(nd)
		if err != nil {
			return nil, errors.Join(err, c.Close())
		}
		c.addrs[i] = addr
		c.chaos.Bind(i, c.handler(i))
	}
	return c, nil
}

// Close releases what NewWired holds; it does nothing in process.
func (c *Cluster) Close() error {
	var err error
	if w := c.wired; w != nil {
		err = w.err
		w.client.Close()
		for _, m := range w.members {
			err = errors.Join(err, m.close())
		}
	}
	return err
}

// serve gives nd a log, if the cluster keeps them, and a server at a new
// address, and adds it as the last member.
func (w *wired) serve(nd *node.Node) (string, error) {
	m := &member{}
	if err := w.open(m, nd); err != nil {
		return "", err
	}
	m.srv = transport.NewServer(m)
	m.srv.Instrument(w.metrics)
	addr, err := m.srv.Listen("127.0.0.1:0")
	if err != nil {
		return "", errors.Join(err, m.close())
	}
	w.members = append(w.members, m)
	w.client.AddServer(addr)
	return addr, nil
}

// open puts nd behind m, with a log in a fresh directory when the
// cluster keeps them: a blank disk, whatever m's last node logged. A
// record reaches the OS before its ack (store.SyncNever), which
// survives the process crash a test can stage, without a disk's fsync.
func (w *wired) open(m *member, nd *node.Node) (err error) {
	if m.dur != nil {
		m.dur.Close()
	}
	if w.dataDir != "" {
		dir := filepath.Join(w.dataDir, fmt.Sprintf("node-%d", w.disks))
		w.disks++
		if err = os.MkdirAll(dir, 0o755); err == nil {
			m.dur, err = nd.OpenDurability(dir, store.SyncNever, 0, nil)
		}
	}
	m.nd.Store(nd)
	return err
}

// remove takes slot i's member out of the client and shuts it down; a
// drained node's log keeps its final snapshot.
func (w *wired) remove(i int) {
	w.client.RemoveServer(i)
	m := w.members[i]
	w.members = slices.Delete(w.members, i, i+1)
	m.close()
}

func (m *member) close() error {
	err := m.srv.Close()
	if m.dur != nil {
		err = errors.Join(err, m.dur.Close())
	}
	return err
}
