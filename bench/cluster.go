package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/proxy"
	"repro/internal/selector"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

const (
	proxyCacheEntries = 4096
	proxyCacheTTL     = time.Second
	// snapshotEvery is short enough that a measured phase of ten or so
	// seconds sees several snapshot cycles.
	snapshotEvery = 2 * time.Second
	// callTimeout is far above any healthy reply time: the sandbox has
	// stalled this process for seconds at a time (set-ups of 29 s where
	// 3.3 s is normal), and a stall should show as a slow window, not as
	// failed operations.
	callTimeout = 60 * time.Second
)

// cluster is the system under test, wired the way cmd/plsd and
// cmd/plsproxy wire it: numServers nodes behind loopback TCP servers,
// each with its own peer client (selector-observed, instrumented), an
// optional WAL per node, and an optional plsproxy front tier. All
// transport clients keep one socket per server.
type cluster struct {
	w       workload
	reg     *telemetry.Registry
	tr      *tracer
	nodes   []*node.Node
	durs    []*node.Durability
	dirs    []string
	servers []*transport.Server
	peers   []*transport.Client
	addrs   []string

	snapStop chan struct{}
	snapWG   sync.WaitGroup

	// Client side: one transport client and one selector, shared by the
	// per-client services (and by the proxy's backend service).
	clientTr *transport.Client
	sel      *selector.Selector
	svcs     []*core.Service

	px        *proxy.Proxy
	pxServer  *transport.Server
	pxClients []*transport.Client
	front     []transport.Caller // pxClients as the clients call them
}

// startCluster brings the whole stack up. dataDir is used by durable
// workloads only; tr is nil when tracing is off.
func startCluster(w workload, seed uint64, clients int, dataDir string, tr *tracer) (*cluster, error) {
	c := &cluster{w: w, reg: telemetry.NewRegistry(), tr: tr, snapStop: make(chan struct{})}
	ok := false
	defer func() {
		if !ok {
			c.close()
		}
	}()

	nodeM := telemetry.NewNodeMetrics(c.reg, numServers)
	var walM *telemetry.WALMetrics
	if w.durable {
		walM = telemetry.NewWALMetrics(c.reg)
	}
	for i := 0; i < numServers; i++ {
		nd := node.New(i, stats.NewRNG(seed*131+uint64(i)+1))
		nd.Instrument(nodeM)
		c.nodes = append(c.nodes, nd)
		if w.durable {
			dir := filepath.Join(dataDir, fmt.Sprintf("node%d", i))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return nil, err
			}
			d, err := nd.OpenDurability(dir, store.SyncBatch, 0, walM)
			if err != nil {
				return nil, fmt.Errorf("open durability: %w", err)
			}
			c.durs = append(c.durs, d)
			c.dirs = append(c.dirs, dir)
		}
		srv := transport.NewServer(tr.handler(nd, spanNodeHandle))
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.addrs = append(c.addrs, addr)
	}
	peerM := telemetry.NewTransportMetrics(c.reg, "peer", numServers)
	for _, nd := range c.nodes {
		pc := c.newClient(c.addrs, peerM)
		c.peers = append(c.peers, pc)
		peerSel := selector.New(numServers, selector.Options{})
		nd.Attach(tr.caller(transport.Instrument(selector.Observe(pc, peerSel), peerM), spanPeerCall))
	}
	// The bench drives snapshots itself (same cadence as the node's own
	// snapshot loop) so that the crash check can stop them and drop the
	// nodes without the final snapshot Durability.Close would take.
	for _, d := range c.durs {
		c.snapWG.Add(1)
		go func(d *node.Durability) {
			defer c.snapWG.Done()
			t := time.NewTicker(snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					_ = d.SnapshotNow() // the WAL still holds everything; the next tick retries
				case <-c.snapStop:
					return
				}
			}
		}(d)
	}

	clientM := telemetry.NewTransportMetrics(c.reg, "client", numServers)
	c.clientTr = c.newClient(c.addrs, clientM)
	c.sel = selector.New(numServers, selector.Options{Metrics: telemetry.NewSelectorMetrics(c.reg)})
	for i := 0; i < clients; i++ {
		svc, err := core.NewService(tr.caller(c.clientTr, spanNodeCall),
			core.WithSeed(seed*8191+uint64(i)+1),
			core.WithClassifier(classify),
			core.WithSelector(c.sel))
		if err != nil {
			return nil, err
		}
		c.svcs = append(c.svcs, svc)
	}

	if w.proxy {
		// As cmd/plsproxy: instrumented backend, lookup metrics, selector.
		backend, err := core.NewService(
			tr.caller(transport.Instrument(c.clientTr, clientM), spanNodeCall),
			core.WithSeed(seed*524287+1),
			core.WithClassifier(classify),
			core.WithSelector(c.sel),
			core.WithLookupMetrics(telemetry.NewLookupMetrics(c.reg)))
		if err != nil {
			return nil, err
		}
		c.px = proxy.New(backend, proxy.Options{
			CacheEntries: proxyCacheEntries,
			TTL:          proxyCacheTTL,
			Metrics:      telemetry.NewProxyMetrics(c.reg),
		})
		c.pxServer = transport.NewServer(tr.handler(c.px, spanFrontHandle))
		addr, err := c.pxServer.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		frontM := telemetry.NewTransportMetrics(c.reg, "front", 1)
		for i := 0; i < clients; i++ {
			pc := c.newClient([]string{addr}, frontM)
			c.pxClients = append(c.pxClients, pc)
			c.front = append(c.front, tr.caller(pc, spanFrontCall))
		}
	}
	ok = true
	return c, nil
}

func (c *cluster) newClient(addrs []string, m *telemetry.TransportMetrics) *transport.Client {
	return transport.NewClient(addrs,
		transport.WithTimeout(callTimeout),
		transport.WithMuxConns(1),
		transport.WithClientMetrics(m))
}

// stopServing quiesces everything that talks: snapshot tickers, proxy,
// clients, node servers, peer clients. Node state and WALs stay open.
func (c *cluster) stopServing() {
	select {
	case <-c.snapStop:
	default:
		close(c.snapStop)
	}
	c.snapWG.Wait()
	for _, pc := range c.pxClients {
		pc.Close()
	}
	if c.pxServer != nil {
		c.pxServer.Close()
	}
	if c.clientTr != nil {
		c.clientTr.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
	for _, pc := range c.peers {
		pc.Close()
	}
}

// close tears the cluster down gracefully and removes its data dirs.
func (c *cluster) close() {
	c.stopServing()
	for _, d := range c.durs {
		_ = d.WAL().Close() // data dirs are deleted next; no final snapshot needed
	}
	for _, dir := range c.dirs {
		os.RemoveAll(dir)
	}
}

// preload places every key's base entries, all clients in parallel,
// each its owned keys, in batches of placeBatch.
func (c *cluster) preload(ctx context.Context, m *model) error {
	clients := len(c.svcs)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for cl := range c.svcs {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			items := make([]core.PlaceItem, 0, placeBatch)
			flush := func() {
				for _, err := range c.svcs[cl].PlaceBatch(ctx, items) {
					if err != nil && errs[cl] == nil {
						errs[cl] = err
					}
				}
				items = items[:0]
			}
			for k := cl; k < len(m.keys); k += clients {
				items = append(items, core.PlaceItem{Key: m.keys[k], Entries: m.baseEntries(k)})
				if len(items) == placeBatch {
					flush()
				}
			}
			if len(items) > 0 {
				flush()
			}
		}(cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verifyPreload looks every key up once, directly, and checks the
// answer against the model.
func (c *cluster) verifyPreload(ctx context.Context, m *model) error {
	clients := len(c.svcs)
	bad := make([]int, clients)
	var wg sync.WaitGroup
	for cl := range c.svcs {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for k := cl; k < len(m.keys); k += clients {
				res, err := c.svcs[cl].PartialLookup(ctx, m.keys[k], lookupT)
				if err != nil || !checkLookup(m, k, res.Entries, 0) {
					bad[cl]++
				}
			}
		}(cl)
	}
	wg.Wait()
	total := 0
	for _, b := range bad {
		total += b
	}
	if total > 0 {
		return fmt.Errorf("preload verification: %d of %d keys answered wrongly", total, len(m.keys))
	}
	return nil
}

// crashAndRecover drops the durable nodes without a final snapshot,
// reopens their data dirs with fresh nodes, and checks the recovered
// state against the model: every base entry and every acked Add
// present on some node, every acked Delete absent from all of them.
func (c *cluster) crashAndRecover(m *model) (recoverySeconds float64, ok bool, err error) {
	c.stopServing()
	for _, d := range c.durs {
		if err := d.WAL().Close(); err != nil {
			return 0, false, fmt.Errorf("close WAL: %w", err)
		}
	}
	start := time.Now()
	recovered := make([]*node.Node, len(c.dirs))
	for i, dir := range c.dirs {
		nd := node.New(i, stats.NewRNG(uint64(i)+1))
		d, err := nd.OpenDurability(dir, store.SyncBatch, 0, nil)
		if err != nil {
			return 0, false, fmt.Errorf("recover node %d: %w", i, err)
		}
		defer d.WAL().Close()
		recovered[i] = nd
	}
	recoverySeconds = time.Since(start).Seconds()

	holds := func(key string, e core.Entry) bool {
		for _, nd := range recovered {
			if set := nd.LocalSet(key); set != nil && set.Contains(e) {
				return true
			}
		}
		return false
	}
	ok = true
	for k, key := range m.keys {
		for _, e := range m.baseEntries(k) {
			if !holds(key, e) {
				ok = false
			}
		}
		if !m.unknown[k] && holds(key, core.Entry(m.priv[k])) != m.present[k] {
			ok = false
		}
	}
	return recoverySeconds, ok, nil
}
