// Command plsd runs one partial-lookup server daemon over TCP.
//
// A cluster is a set of plsd processes sharing the same ordered peer
// list; each daemon finds itself in it by its -listen address. Example
// 3-server cluster on one machine:
//
//	P=127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003
//	plsd -listen 127.0.0.1:7001 -peers $P &
//	plsd -listen 127.0.0.1:7002 -peers $P &
//	plsd -listen 127.0.0.1:7003 -peers $P &
//
// Clients (plsctl, or core.Service over transport.NewClient) then
// place keys and perform partial lookups against any server.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plsd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		peers   = flag.String("peers", "127.0.0.1:7001", "comma-separated ordered list of all server addresses (including this one)")
		listen  = flag.String("listen", "", "this server's -peers entry, which it listens on (may be left out when -peers has one entry)")
		admin   = flag.String("admin", "", "admin/debug HTTP listen address serving /metrics, /healthz, and /debug/pprof/ (empty = disabled)")
		seed    = flag.Uint64("seed", 0, "RNG seed for answer sampling (0 = derived from time)")
		timeout = flag.Duration("peer-timeout", 5*time.Second, "peer RPC timeout")
		retries = flag.Int("peer-retries", 1, "attempts per peer RPC before reporting the peer down")

		// Dynamic membership: joining at start, draining at shutdown.
		joinVia         = flag.String("join", "", "existing member address to request admission from at startup (-listen must be the last -peers entry)")
		drainOnShutdown = flag.Bool("drain-on-shutdown", false, "on shutdown, gracefully drain out of the cluster (rebalance entries to survivors) before exiting")

		// Zone topology: the same spec on every daemon, like -peers. It
		// feeds only the node's zone-spread homes (ZoneSpread configs);
		// the peer selector only observes. See the OPERATIONS.md runbook.
		topoSpec = flag.String("topology", "", "zone topology spec: RxDxK (e.g. 3x2x2), explicit rack=ids list, or @file; empty = flat cluster")

		// Anti-entropy repair re-replicates entries lost to peers the
		// selector presumes dead.
		repairInterval = flag.Duration("repair-interval", 30*time.Second, "interval between anti-entropy repair sweeps (0 = no repair)")

		// Durability; with -data-dir unset the node is volatile.
		dataDir      = flag.String("data-dir", "", "directory for the WAL, the only file kind on disk (empty = volatile, state dies with the process)")
		fsyncPolicy  = flag.String("fsync", "batch", "WAL sync policy: always (fsync per mutation), batch (group commit), never (OS flush only)")
		snapInterval = flag.Duration("snapshot-interval", 5*time.Minute, "interval between compacting checkpoints written into the WAL (0 = only at startup and shutdown)")
		drainWait    = flag.Duration("drain-timeout", 10*time.Second, "max time to let in-flight requests finish at shutdown")
	)
	flag.Parse()
	if *repairInterval < 0 {
		return fmt.Errorf("-repair-interval %v is negative (0 = no repair)", *repairInterval)
	}

	addrs, err := cliutil.ParseServerList(*peers)
	if err != nil {
		return fmt.Errorf("-peers: %w", err)
	}
	id, err := rank(*listen, addrs, *joinVia != "")
	if err != nil {
		return err
	}
	if *seed == 0 {
		*seed = uint64(time.Now().UnixNano())
	}
	o := cluster.MemberOptions{PeerTimeout: *timeout, PeerRetries: *retries, RepairInterval: *repairInterval, SnapshotInterval: *snapInterval}
	if o.Fsync, err = store.ParseSyncPolicy(*fsyncPolicy); err != nil {
		return err
	}
	if *topoSpec != "" {
		if o.Topology, err = topo.Parse(*topoSpec, len(addrs)); err != nil {
			return fmt.Errorf("-topology: %w", err)
		}
		fmt.Printf("plsd: zone topology %d racks, this server in %s\n", o.Topology.NumRacks(), o.Topology.ZoneOf(id))
	}
	m, err := cluster.NewMember(id, stats.NewRNG(*seed), addrs, *dataDir, o)
	if err != nil {
		return err
	}
	if m.Durability != nil {
		rs := m.Durability.Stats()
		fmt.Printf("plsd: recovered %s: replayed %d key states and %d outcome records (%d torn bytes truncated)\n",
			*dataDir, rs.KeyStates, rs.Outcomes, rs.WAL.TruncatedBytes)
	}
	if *repairInterval > 0 {
		fmt.Printf("plsd: anti-entropy repair sweeping every %v\n", *repairInterval)
	}
	fmt.Printf("plsd: server %d/%d listening on %s\n", id, len(addrs), m.Addr)
	err = serve(m, *joinVia, *admin, *timeout, *drainOnShutdown)
	// Graceful shutdown: stop accepting and drain in-flight requests
	// first — every ack we have sent must reach the log before the final
	// checkpoint — then flush and close the durable state.
	fmt.Println("plsd: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if cerr := m.Close(ctx); cerr != nil {
		return errors.Join(err, cerr)
	}
	if m.Durability != nil {
		fmt.Println("plsd: durable state flushed")
	}
	return err
}

// rank returns this daemon's index in addrs: its -listen address's
// entry, which addrs must list once. With a single entry -listen may be
// left out; a daemon that joins must be the last entry.
func rank(listen string, addrs []string, join bool) (int, error) {
	for i, a := range addrs {
		if slices.Contains(addrs[i+1:], a) {
			return 0, fmt.Errorf("-peers lists %s twice", a)
		}
	}
	id := slices.Index(addrs, listen)
	switch {
	case listen == "" && len(addrs) == 1:
		id = 0
	case listen == "":
		return 0, fmt.Errorf("-listen is required to find this daemon among %d -peers entries", len(addrs))
	case id < 0:
		return 0, fmt.Errorf("-listen %s is not a -peers entry", listen)
	}
	if join && id != len(addrs)-1 {
		return 0, fmt.Errorf("-join requires -listen to be the last -peers entry (it is entry %d of %d)", id, len(addrs))
	}
	return id, nil
}

// serve runs the listening member m until a signal or its own drain:
// it joins the cluster through joinVia if set, serves -admin, and on a
// signal drains out first if drainOnShutdown.
func serve(m *cluster.Member, joinVia, admin string, timeout time.Duration, drainOnShutdown bool) error {
	telemetry.RegisterRuntimeMetrics(m.Registry)
	if joinVia != "" {
		// Scale-out: ask an existing member to admit us. We must be
		// listening already — the coordinator's commit streams our share
		// of every key at us before the reply arrives.
		v := m.Node.View()
		self := v.Addrs[v.Self]
		update, err := cliutil.CommitMembership(context.Background(), joinVia, wire.Join{Addr: self}, timeout)
		if err != nil {
			return fmt.Errorf("join via %s: %w", joinVia, err)
		}
		fmt.Printf("plsd: joined as server %d/%d at epoch %d\n", m.Node.ID(), len(update.Addrs), update.Epoch)
	}
	if admin != "" {
		m.Registry.PublishExpvar("pls")
		stop, err := cliutil.ServeAdmin(m.Registry, admin, "plsd")
		if err != nil {
			return err
		}
		defer stop()
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case <-sig:
	case <-m.Drained():
		// A drain coordinated elsewhere (plsctl drain) already moved our
		// entries: the final checkpoint doubles as the escrow of anything
		// no survivor could safely accept.
		fmt.Println("plsd: drained out of the cluster; shutting down (data dir is the escrow checkpoint)")
		return nil
	}
	if drainOnShutdown {
		// Hand our entries to the survivors before exiting, coordinated
		// here: our own sweep pushes first, then the survivors commit.
		fmt.Println("plsd: draining out of the cluster before shutdown")
		if ack, ok := m.Node.Handle(context.Background(), wire.Leave{Server: m.Node.ID()}).(wire.Ack); ok {
			fmt.Fprintln(os.Stderr, "plsd: drain-on-shutdown:", ack.Err)
		}
	}
	return nil
}
