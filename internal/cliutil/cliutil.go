// Package cliutil holds what the plsd, plsctl and plsproxy
// command-line tools share: flag parsing helpers, the client flags and
// client stack of plsctl and plsproxy, and the admin HTTP listener.
package cliutil

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/selector"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

// ParseScheme converts a CLI scheme name and parameters into a
// validated strategy configuration. Accepted names: full, fixed,
// randomserver, round, hash, multiprobe, partition.
func ParseScheme(name string, x, y int, seed uint64) (wire.Config, error) {
	var cfg wire.Config
	switch strings.ToLower(name) {
	case "full", "fullreplication":
		cfg = wire.Config{Scheme: wire.FullReplication}
	case "fixed":
		cfg = wire.Config{Scheme: wire.Fixed, X: x}
	case "randomserver", "rs":
		cfg = wire.Config{Scheme: wire.RandomServer, X: x}
	case "round", "roundrobin":
		cfg = wire.Config{Scheme: wire.RoundRobin, Y: y}
	case "hash":
		cfg = wire.Config{Scheme: wire.Hash, Y: y, Seed: seed}
	case "partition", "keypartition":
		cfg = wire.Config{Scheme: wire.KeyPartition}
	case "multiprobe", "mp":
		cfg = wire.Config{Scheme: wire.MultiProbe, Y: y, Seed: seed}
	default:
		return cfg, fmt.Errorf("cliutil: unknown scheme %q (want full, fixed, randomserver, round, hash, multiprobe, or partition)", name)
	}
	// n is unknown at flag-parse time; validate the scheme-local
	// constraints only (n-dependent checks re-run at place time).
	if err := cfg.Validate(0); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// ParseServerList splits a comma-separated address list, trimming
// whitespace and rejecting empty items.
func ParseServerList(s string) ([]string, error) {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("cliutil: empty address in server list %q", s)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cliutil: empty server list")
	}
	return out, nil
}

// ClientFlags holds the flags plsctl and plsproxy share: the placement
// scheme updates use, and each RPC's timeout and retry policy.
type ClientFlags struct {
	Scheme     string
	X, Y       int
	HashSeed   uint64
	Timeout    time.Duration
	Retries    int
	Backoff    time.Duration
	HedgeAfter time.Duration
}

// RegisterClientFlags defines the shared client flags on fs; their
// values are in the returned struct once fs is parsed.
func RegisterClientFlags(fs *flag.FlagSet) *ClientFlags {
	f := new(ClientFlags)
	fs.StringVar(&f.Scheme, "scheme", "round", "default placement scheme: full, fixed, randomserver, round, hash, multiprobe, partition")
	fs.IntVar(&f.X, "x", 0, "x parameter (fixed, randomserver)")
	fs.IntVar(&f.Y, "y", 1, "y parameter (round, hash, multiprobe)")
	fs.Uint64Var(&f.HashSeed, "hash-seed", 0, "hash family seed (hash, multiprobe)")
	fs.DurationVar(&f.Timeout, "timeout", 5*time.Second, "RPC timeout")
	fs.IntVar(&f.Retries, "retries", 1, "attempts per probe before failing over to the next server")
	fs.DurationVar(&f.Backoff, "backoff", 50*time.Millisecond, "delay before the first retry (doubles per retry up to 1s, less up to half at random)")
	fs.DurationVar(&f.HedgeAfter, "hedge-after", 0, "send a second identical probe after this latency (0 = off)")
	return f
}

// Config is the configuration the scheme flags name.
func (f *ClientFlags) Config() (wire.Config, error) {
	return ParseScheme(f.Scheme, f.X, f.Y, f.HashSeed)
}

// StackOptions are a client stack's settings that are not shared flags.
type StackOptions struct {
	Metrics       string // prefix of the per-server call metrics
	Seed          uint64 // probe-order seed
	Config        wire.Config
	LookupTimeout time.Duration // per lookup, end to end; 0 = none
	// With both set, probes prefer the servers nearest ClientZone.
	Topology   *topo.Topology
	ClientZone string
}

// Stack is a client of the servers at some addresses, bottom up: the
// mux client, its per-server metrics, the selector and the service.
type Stack struct {
	Client   *transport.Client
	Selector *selector.Selector
	Service  *core.Service
}

// NewStack builds a client stack over addrs with f's timeout and retry
// policy, every layer instrumented into reg. The selector is always
// on: cold, it orders servers as the seeded permutation does. The
// caller closes the stack's Client.
func (f *ClientFlags) NewStack(reg *telemetry.Registry, addrs []string, o StackOptions) (*Stack, error) {
	tm := telemetry.NewTransportMetrics(reg, o.Metrics, len(addrs))
	client := transport.NewClient(addrs,
		transport.WithTimeout(f.Timeout),
		transport.WithClientMetrics(tm))
	sel := selector.New(len(addrs), selector.Options{Metrics: telemetry.NewSelectorMetrics(reg)})
	sel.SetTopology(o.Topology, o.ClientZone)
	svc, err := core.NewService(transport.Instrument(client, tm),
		core.WithSeed(o.Seed),
		core.WithDefaultConfig(o.Config),
		core.WithLookupMetrics(telemetry.NewLookupMetrics(reg)),
		core.WithLookupPolicy(core.LookupPolicy{
			Timeout: o.LookupTimeout,
			Retry:   transport.RetryPolicy{Attempts: f.Retries, Backoff: f.Backoff, HedgeAfter: f.HedgeAfter},
		}),
		core.WithSelector(sel))
	if err != nil {
		client.Close()
		return nil, err
	}
	return &Stack{Client: client, Selector: sel, Service: svc}, nil
}

// CommitMembership sends a wire.Join or wire.Leave to the member at addr
// and returns the update it committed. The member replies once every
// member has finished its rebalance sweep, so the call may take
// minutes; timeout bounds it too.
func CommitMembership(ctx context.Context, addr string, msg wire.Message, timeout time.Duration) (wire.MembershipUpdate, error) {
	client := transport.NewClient([]string{addr}, transport.WithTimeout(timeout))
	defer client.Close()
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	reply, err := client.Call(ctx, 0, msg)
	if err != nil {
		return wire.MembershipUpdate{}, err
	}
	switch r := reply.(type) {
	case wire.MembershipUpdate:
		return r, nil
	case wire.Ack:
		return wire.MembershipUpdate{}, errors.New(r.Err)
	}
	return wire.MembershipUpdate{}, fmt.Errorf("unexpected reply %T", reply)
}

// ServeAdmin serves reg's admin endpoints (/metrics, /healthz,
// /debug/vars, /debug/pprof/) on addr and announces them as prog. The
// returned function stops the server.
func ServeAdmin(reg *telemetry.Registry, addr, prog string) (stop func() error, err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: telemetry.AdminHandler(reg, nil)}
	// Serve returns once stop closes the listener; nothing to report then.
	go func() { _ = srv.Serve(ln) }()
	fmt.Printf("%s: admin endpoint on http://%s (/metrics, /healthz, /debug/pprof/)\n", prog, ln.Addr())
	return srv.Close, nil
}
