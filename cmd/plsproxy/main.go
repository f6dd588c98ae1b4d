// Command plsproxy runs a stateless front tier for a plsd cluster.
//
// The proxy terminates many cheap client connections on one listen
// address, coalesces duplicate in-flight partial lookups, serves hot
// keys from a bounded TTL result cache, and fans the rest out to the
// plsd servers over the multiplexed peer transport — so a crowd of
// clients asking for the same hot key costs the cluster one probe
// sequence, not one per client:
//
//	plsproxy -listen 127.0.0.1:7100 \
//	         -servers 127.0.0.1:7001,127.0.0.1:7002,127.0.0.1:7003 \
//	         -cache-ttl 2s -cache-entries 4096
//
// Clients speak the ordinary wire protocol to the proxy exactly as
// they would to a plsd server (plsctl just needs -servers pointed at
// the proxy). An update routed through the proxy reaches its cached
// answers only after the cluster acks, and costs them only what it made
// wrong: a delete takes its entry out of the key's cached answers (one
// left with fewer than its t entries is dropped), a place drops them,
// and an add leaves them — any t live entries answer a partial lookup,
// so an answer cached before an add stays right and is served, without
// the new entry, until its -cache-ttl runs out. Updates made behind the
// proxy's back are bounded by -cache-ttl alone; point plsctl at the
// cluster directly if you cannot tolerate that.
// See docs/OPERATIONS.md for the sizing and staleness runbook.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/proxy"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plsproxy:", err)
		os.Exit(1)
	}
}

func run() error {
	cf := cliutil.RegisterClientFlags(flag.CommandLine)
	var (
		listen  = flag.String("listen", "127.0.0.1:7100", "client-facing listen address")
		servers = flag.String("servers", "127.0.0.1:7001", "comma-separated plsd server addresses")
		admin   = flag.String("admin", "", "admin/debug HTTP listen address serving /metrics, /healthz, and /debug/pprof/ (empty = disabled)")
		seed    = flag.Uint64("seed", 0, "RNG seed for probe-order sampling (0 = derived from time)")

		cacheEntries = flag.Int("cache-entries", 4096, "max cached partial-lookup answers (each (key, t) pair is one entry)")
		cacheTTL     = flag.Duration("cache-ttl", 2*time.Second, "result cache TTL: how long an answer cached before an add, or before an update the proxy does not see, may still be served (0 = cache off, coalescing stays on)")
	)
	flag.Parse()

	addrs, err := cliutil.ParseServerList(*servers)
	if err != nil {
		return err
	}
	cfg, err := cf.Config()
	if err != nil {
		return err
	}
	rngSeed := *seed
	if rngSeed == 0 {
		rngSeed = uint64(time.Now().UnixNano())
	}

	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	px, client, err := newProxy(reg, addrs, frontOptions{
		cfg:          cfg,
		seed:         rngSeed,
		cacheEntries: *cacheEntries,
		cacheTTL:     *cacheTTL,
		timeout:      cf.Timeout,
		retries:      cf.Retries,
		backoff:      cf.Backoff,
		hedgeAfter:   cf.HedgeAfter,
	})
	if err != nil {
		return err
	}
	defer client.Close()

	srv := transport.NewServer(px)
	srv.Instrument(telemetry.NewServerMetrics(reg, "server"))
	bound, err := srv.Listen(*listen)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("plsproxy: fronting %d servers on %s (cache %d entries, ttl %v)\n",
		len(addrs), bound, *cacheEntries, *cacheTTL)

	if *admin != "" {
		reg.PublishExpvar("plsproxy")
		stop, err := cliutil.ServeAdmin(reg, *admin, "plsproxy")
		if err != nil {
			return err
		}
		defer stop()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("plsproxy: shutting down")
	return nil
}

// frontOptions is what the flags say about the front tier.
type frontOptions struct {
	cfg          core.Config
	seed         uint64
	cacheEntries int
	cacheTTL     time.Duration
	timeout      time.Duration
	retries      int
	backoff      time.Duration
	hedgeAfter   time.Duration
}

// newProxy puts the proxy on a client stack over the servers at addrs,
// every layer instrumented into reg. The caller closes the returned
// client.
func newProxy(reg *telemetry.Registry, addrs []string, o frontOptions) (*proxy.Proxy, *transport.Client, error) {
	cf := cliutil.ClientFlags{Timeout: o.timeout, Retries: o.retries, Backoff: o.backoff, HedgeAfter: o.hedgeAfter}
	st, err := cf.NewStack(reg, addrs, cliutil.StackOptions{
		Metrics:       "backend",
		Seed:          o.seed,
		Config:        o.cfg,
		LookupTimeout: o.timeout,
	})
	if err != nil {
		return nil, nil, err
	}
	view := cluster.NewView(st.Client, st.Selector)
	px := proxy.New(st.Service, proxy.Options{
		CacheEntries: o.cacheEntries,
		TTL:          o.cacheTTL,
		Metrics:      telemetry.NewProxyMetrics(reg),
		Maintenance:  st.Client,
		// A committed membership change renumbers the backend: the proxy
		// flushed its cache before this applies it to the client's
		// member list and selector, through the step a member takes.
		OnMembership: func(m wire.MembershipUpdate) {
			view.Apply(node.View{Epoch: m.Epoch, Addrs: m.Addrs, Self: -1})
		},
	})
	reg.NewGaugeFunc("proxy.cache_entries", func() int64 { return int64(px.CacheLen()) })
	reg.NewGaugeFunc("proxy.member_epoch", func() int64 { return int64(px.MemberEpoch()) })
	return px, st.Client, nil
}
