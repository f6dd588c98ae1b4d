// Command plsd runs one partial-lookup server daemon over TCP.
//
// A cluster is a set of plsd processes sharing the same ordered peer
// list; each daemon is told its own index. Example 3-server cluster on
// one machine:
//
//	plsd -id 0 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	plsd -id 1 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//	plsd -id 2 -peers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 &
//
// Clients (plsctl, or core.Service over transport.NewClient) then
// place keys and perform partial lookups against any server.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/node"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
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
		id      = flag.Int("id", 0, "this server's index into the peer list")
		peers   = flag.String("peers", "127.0.0.1:7001", "comma-separated ordered list of all server addresses (including this one)")
		listen  = flag.String("listen", "", "listen address (default: the peer entry for -id)")
		admin   = flag.String("admin", "", "admin/debug HTTP listen address serving /metrics, /healthz, and /debug/pprof/ (empty = disabled)")
		seed    = flag.Uint64("seed", 0, "RNG seed for answer sampling (0 = derived from time)")
		timeout = flag.Duration("peer-timeout", 5*time.Second, "peer RPC timeout")
		retries = flag.Int("peer-retries", 1, "attempts per peer RPC before reporting the peer down")

		// Dynamic membership. A daemon started with -join asks the given
		// member to admit it once it is listening (its own entry must
		// already be last in -peers); -drain-on-shutdown hands its
		// entries to the survivors before exiting on SIGINT/SIGTERM.
		joinVia         = flag.String("join", "", "existing member address to request admission from at startup (this daemon's -peers entry must be the last slot)")
		drainOnShutdown = flag.Bool("drain-on-shutdown", false, "on shutdown, gracefully drain out of the cluster (rebalance entries to survivors) before exiting")

		// Zone topology. Every daemon must be started with the same spec
		// (it is cluster-shared state, like the peer list): it feeds
		// zone-spread home computation for ZoneSpread configs and orders
		// this daemon's peer preferences nearest-zone-first. See
		// DESIGN.md §6, "Zone-spread placement", and the OPERATIONS.md
		// zone runbook.
		topoSpec = flag.String("topology", "", "zone topology spec: RxDxK (e.g. 3x2x2), explicit rack=ids list, or @file; empty = flat cluster")

		// Anti-entropy repair: background sweeps that re-replicate
		// entries lost to dead peers, restoring each scheme's
		// replication invariant. Driven by the peer selector's
		// scoreboard (open circuits = presumed dead).
		repairInterval = flag.Duration("repair-interval", 30*time.Second, "interval between anti-entropy repair sweeps (0 = no repair)")

		// Durability. With -data-dir unset the node is volatile, exactly
		// as before this layer existed.
		dataDir      = flag.String("data-dir", "", "directory for the WAL and snapshots (empty = volatile, state dies with the process)")
		fsyncPolicy  = flag.String("fsync", "batch", "WAL sync policy: always (fsync per mutation), batch (group commit), never (OS flush only)")
		snapInterval = flag.Duration("snapshot-interval", 5*time.Minute, "interval between compacting snapshots (0 = only at startup and shutdown)")
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
	if *id < 0 || *id >= len(addrs) {
		return fmt.Errorf("-id %d out of range for %d peers", *id, len(addrs))
	}
	bind := *listen
	if bind == "" {
		bind = addrs[*id]
	}
	rngSeed := *seed
	if rngSeed == 0 {
		rngSeed = uint64(time.Now().UnixNano())
	}

	// Telemetry: per-op throughput and entry gauges on the node, call
	// counters and latency histograms on outgoing peer traffic, runtime
	// gauges — all served by the -admin endpoint and expvar.
	reg := telemetry.NewRegistry()
	nm := telemetry.NewNodeMetrics(reg, len(addrs))

	nd := node.New(*id, stats.NewRNG(rngSeed))
	nd.Instrument(nm)
	var tp *topo.Topology
	if *topoSpec != "" {
		var err error
		tp, err = topo.Parse(*topoSpec, len(addrs))
		if err != nil {
			return fmt.Errorf("-topology: %w", err)
		}
		nd.SetTopology(tp)
		fmt.Printf("plsd: zone topology %d racks, this server in %s\n", tp.NumRacks(), tp.ZoneOf(*id))
	}
	reg.NewGaugeFunc("node.entries", func() int64 { return int64(nd.EntryCount()) })
	reg.NewGaugeFunc("node.keys", func() int64 { return int64(nd.KeyCount()) })
	telemetry.RegisterRuntimeMetrics(reg)

	// Durability: recover on-disk state before any traffic, then log
	// every acknowledged mutation. Must precede Listen — a request served
	// against half-recovered state would be answered from the past.
	var dur *node.Durability
	if *dataDir != "" {
		policy, err := store.ParseSyncPolicy(*fsyncPolicy)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			return fmt.Errorf("create -data-dir: %w", err)
		}
		dur, err = nd.OpenDurability(*dataDir, policy, *snapInterval, telemetry.NewWALMetrics(reg))
		if err != nil {
			return fmt.Errorf("recover %s: %w", *dataDir, err)
		}
		rs := dur.Stats()
		fmt.Printf("plsd: recovered %s: snapshot gen %d (%d keys), replayed %d wal records (%d skipped, %d torn bytes truncated)\n",
			*dataDir, rs.SnapshotGen, rs.SnapshotKeys, rs.Replayed, rs.Skipped, rs.WAL.TruncatedBytes)
	}

	peerCaller, peerClient, sel := newPeerCaller(reg, addrs, *id, peerOptions{
		timeout: *timeout,
		retries: *retries,
	})
	defer peerClient.Close()
	nd.Attach(peerCaller)

	// Dynamic membership: this daemon can coordinate joins and drains
	// (wire.Join / wire.Leave land on any member) and applies committed
	// updates to its own transport view and selector.
	host := newMembershipHost(nd, peerClient, sel, tp)

	// Anti-entropy repair: sweeps are epoch-gated on the selector's
	// failure counter, so a healthy cluster pays nothing for this loop.
	var repairer *node.Repairer
	if *repairInterval > 0 {
		repairer = node.NewRepairer(nd, node.RepairOptions{
			Interval: *repairInterval,
			Health:   sel,
			Metrics:  telemetry.NewRepairMetrics(reg),
		})
		repairer.Start()
		fmt.Printf("plsd: anti-entropy repair sweeping every %v\n", *repairInterval)
	}

	srv := transport.NewServer(nd)
	srv.Instrument(telemetry.NewServerMetrics(reg, "server"))
	bound, err := srv.Listen(bind)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("plsd: server %d/%d listening on %s\n", *id, len(addrs), bound)

	if *joinVia != "" {
		// Scale-out: ask an existing member to admit us. We must be
		// listening already — the coordinator's commit streams our share
		// of every key at us before the reply arrives.
		if *id != len(addrs)-1 {
			return fmt.Errorf("-join requires this daemon to be the last -peers entry (got -id %d of %d)", *id, len(addrs))
		}
		update, err := cliutil.CommitMembership(context.Background(), *joinVia, wire.Join{Addr: addrs[*id]}, *timeout)
		if err != nil {
			return fmt.Errorf("join via %s: %w", *joinVia, err)
		}
		fmt.Printf("plsd: joined as server %d/%d at epoch %d\n", *id, update.NewN, update.Epoch)
	}

	if *admin != "" {
		reg.PublishExpvar("pls")
		stop, err := cliutil.ServeAdmin(reg, *admin, "plsd")
		if err != nil {
			return err
		}
		defer stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	drained := false
	select {
	case <-sig:
	case <-host.drained:
		// A drain coordinated elsewhere (plsctl drain) already moved our
		// entries; fall through to the normal shutdown path.
		drained = true
	}
	if *drainOnShutdown && !drained {
		// Hand our entries to the survivors before exiting, coordinated
		// here: our own sweep pushes first, then the survivors commit.
		fmt.Println("plsd: draining out of the cluster before shutdown")
		if ack, ok := nd.Handle(context.Background(), wire.Leave{Server: nd.ID()}).(wire.Ack); ok {
			fmt.Fprintln(os.Stderr, "plsd: drain-on-shutdown:", ack.Err)
		}
	}
	// Graceful shutdown: stop accepting and drain in-flight requests
	// first — every ack we have sent must reach the log before the final
	// snapshot — then flush and close the durable state.
	fmt.Println("plsd: shutting down")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainWait)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "plsd: drain:", err)
	}
	if repairer != nil {
		// An in-flight sweep's pushes must land in peers' WALs before we
		// flush our own; Stop waits the sweep out.
		repairer.Stop()
	}
	if dur != nil {
		if err := dur.Close(); err != nil {
			return fmt.Errorf("flush durable state: %w", err)
		}
		fmt.Println("plsd: durable state flushed")
	}
	return nil
}

// peerOptions carries the flags that shape outgoing peer traffic.
type peerOptions struct {
	timeout time.Duration
	retries int
}

// newPeerCaller wires the path node id's messages take to the servers at
// addrs, bottom up: mux client, the peer.* counters, the observe-only
// health scoreboard, retries. Counters and scoreboard sit below the
// retry layer, so every attempt is one call in peer.calls and one
// sample for the selector, and peer.latency holds no back-off sleep.
// The caller closes the returned client.
func newPeerCaller(reg *telemetry.Registry, addrs []string, id int, o peerOptions) (transport.Caller, *transport.Client, *selector.Selector) {
	tm := telemetry.NewTransportMetrics(reg, "peer", len(addrs))
	client := transport.NewClient(addrs,
		transport.WithTimeout(o.timeout),
		transport.WithClientMetrics(tm))
	caller := transport.Instrument(client, tm)
	// The daemon's forwarding fan-out is fixed by key placement, so
	// the scoreboard is observe-only here: it feeds the admin health
	// gauges, selector counters, and the repair daemon's
	// presumed-dead classification.
	sel := selector.New(len(addrs), selector.Options{
		Metrics: telemetry.NewSelectorMetrics(reg),
	})
	caller = selector.Observe(caller, sel)
	// One Health copy per vector per snapshot; membership resizes
	// the selector, and the vectors with it.
	health := func(f func(selector.ServerHealth) int64) func() []int64 {
		return func() []int64 {
			h := sel.Health()
			out := make([]int64, len(h))
			for i := range h {
				out[i] = f(h[i])
			}
			return out
		}
	}
	reg.NewGaugeVecFunc("selector.consec_failures", health(func(h selector.ServerHealth) int64 { return int64(h.ConsecFails) }))
	reg.NewGaugeVecFunc("selector.open", health(func(h selector.ServerHealth) int64 {
		if h.Open {
			return 1
		}
		return 0
	}))
	reg.NewGaugeVecFunc("selector.ewma_ns", health(func(h selector.ServerHealth) int64 { return int64(h.EWMA) }))
	if o.retries > 1 {
		// Jitter is seeded from the node id. No HedgeAfter: peer updates
		// are not requests to duplicate.
		caller = transport.NewRetry(caller, transport.RetryPolicy{Attempts: o.retries, Backoff: 25 * time.Millisecond},
			stats.NewRNG(uint64(id)), nil)
	}
	return caller, client, sel
}
