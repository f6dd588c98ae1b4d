package cluster

import (
	"context"
	"errors"
	"net"

	"repro/internal/stats"
)

// wired is what NewWired adds to a cluster: where its members log.
type wired struct {
	dataDir string // "" for volatile members
	disks   int    // data directories made so far
}

// NewWired builds the cluster New(n, rng) builds, each server a Member
// on 127.0.0.1:0, so every call crosses a socket unless a node
// addresses itself. With dataDir set, each member logs to a directory
// of its own under it. Close releases everything.
func NewWired(n int, rng *stats.RNG, dataDir string) (*Cluster, error) {
	lns := make([]net.Listener, n)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return newCluster(addrs, lns, rng, &wired{dataDir: dataDir})
}

// Member returns the member in slot i; in process it has a node and its
// view of the network alone.
func (c *Cluster) Member(i int) *Member { return c.members[i] }

// Close releases what NewWired holds; it does nothing in process.
func (c *Cluster) Close() error {
	err := errors.Join(c.err, c.view.Close())
	for _, m := range c.members {
		err = errors.Join(err, m.Close(context.Background()))
	}
	return err
}
