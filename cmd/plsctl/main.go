// Command plsctl is the client CLI for a plsd cluster.
//
// Usage:
//
//	plsctl -servers host:port,host:port -scheme round -y 2 place  KEY v1 v2 v3 ...
//	plsctl -servers ...                 -scheme round -y 2 add    KEY v
//	plsctl -servers ...                 -scheme round -y 2 delete KEY v
//	plsctl -servers ...                 -scheme round -y 2 lookup KEY t
//	plsctl -servers ...                                  dump   KEY        # per-server contents
//	plsctl stats ADMIN_ADDR                                                # fetch a node's telemetry snapshot
//
// Membership verbs drive live cluster resizing (see docs/OPERATIONS.md
// for the full scale-out / scale-in runbooks):
//
//	plsctl -servers ... join NEW_ADDR    # admit a listening plsd into the cluster
//	plsctl -servers ... drain INDEX      # gracefully drain one member out
//
// The multi-key verbs take many keys per invocation and ship them in
// the wire batch envelopes (PlaceBatch / AddBatch / LookupBatch), so a
// whole working set costs one round trip per route instead of one per
// key:
//
//	plsctl -servers ... -scheme randomserver -x 10 mplace KEY1=v1,v2,v3 KEY2=v4,v5 ...
//	plsctl -servers ... -scheme randomserver -x 10 madd   KEY1=v9 KEY2=v10 ...
//	plsctl -servers ... -scheme randomserver -x 10 mlookup T KEY1 KEY2 ...
//
// The scheme flags must match the configuration the key was placed
// with (the service is symmetric: any client carrying the same config
// can update the key). That includes -zone-spread: a key placed with
// zone-spread on a -topology cluster must be updated with the same
// flags. -client-zone orders probes nearest-zone-first (see DESIGN.md
// §3, "Zone distance").
//
// stats fetches /metrics from a plsd -admin endpoint (host:port or a
// full URL) and pretty-prints the snapshot; -stats-json dumps the raw
// JSON instead.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "plsctl:", err)
		os.Exit(1)
	}
}

func run() error {
	cf := cliutil.RegisterClientFlags(flag.CommandLine)
	var (
		servers       = flag.String("servers", "127.0.0.1:7001", "comma-separated server addresses")
		lookupTimeout = flag.Duration("lookup-timeout", 0, "end-to-end deadline for one lookup (0 = none)")

		// Zone topology (must match the -topology every plsd was started
		// with; see the OPERATIONS.md zone runbook).
		topoSpec   = flag.String("topology", "", "zone topology spec matching the cluster's (RxDxK, rack=ids list, or @file); empty = flat")
		zoneSpread = flag.Bool("zone-spread", false, "request zone-spread placement for updates (requires -topology)")
		clientZone = flag.String("client-zone", "", "this client's zone path (e.g. r0/d1/k0); probes prefer nearby servers (requires -topology)")

		// Client-side telemetry.
		showTelemetry = flag.Bool("telemetry", false, "print this client's telemetry snapshot to stderr after the command")
		statsJSON     = flag.Bool("stats-json", false, "stats: dump the raw JSON snapshot instead of pretty-printing")

		// Front-tier mode: -servers names a plsproxy, not the cluster.
		viaProxy = flag.Bool("proxy", false, "treat -servers as a plsproxy front tier: ship raw wire requests and let the proxy route, coalesce, and cache")
	)
	flag.Parse()
	args := flag.Args()
	if len(args) >= 1 && args[0] == "stats" {
		if len(args) != 2 {
			return fmt.Errorf("usage: plsctl stats ADMIN_ADDR")
		}
		return runStats(args[1], *statsJSON)
	}
	if len(args) < 2 {
		return fmt.Errorf("usage: plsctl [flags] place|add|delete|lookup|dump KEY [args...] | mplace|madd|mlookup ... | join ADDR | drain INDEX | stats ADMIN_ADDR")
	}
	verb, key := args[0], args[1]

	addrs, err := cliutil.ParseServerList(*servers)
	if err != nil {
		return err
	}
	// Argument checks shared by the cluster and -proxy paths.
	switch {
	case (verb == "add" || verb == "delete") && len(args) != 3:
		return fmt.Errorf("usage: %s KEY ENTRY", verb)
	case verb == "lookup" && len(args) != 3:
		return fmt.Errorf("usage: lookup KEY T")
	case verb == "mlookup" && len(args) < 3:
		return fmt.Errorf("usage: mlookup T KEY [KEY...]")
	}
	var t int // lookup's and mlookup's target answer size
	if tArg := args[1]; verb == "lookup" || verb == "mlookup" {
		if verb == "lookup" {
			tArg = args[2]
		}
		if t, err = strconv.Atoi(tArg); err != nil {
			return fmt.Errorf("bad target answer size %q: %w", tArg, err)
		}
	}

	var tp *topo.Topology
	if *topoSpec != "" {
		if tp, err = topo.Parse(*topoSpec, len(addrs)); err != nil {
			return fmt.Errorf("-topology: %w", err)
		}
	}
	if tp == nil && (*zoneSpread || *clientZone != "") {
		return fmt.Errorf("-zone-spread and -client-zone require -topology")
	}
	// Membership verbs commit a cluster-wide rebalance — every member
	// sweeps every key synchronously before the reply — so they use their
	// own generously-timed client rather than the data-path one.
	if verb == "join" || verb == "drain" {
		return runMembership(addrs, verb, key, *viaProxy)
	}
	cfg, err := cf.Config()
	if err != nil {
		return err
	}
	cfg.ZoneSpread = *zoneSpread
	if *viaProxy {
		// Front-tier mode: the strategy layer lives in the proxy, so ship
		// the raw wire request and print whatever comes back. The local
		// config flags still travel with updates — the proxy needs them to
		// place keys — but lookups are config-free.
		return runProxy(addrs, cfg, cf.Timeout, verb, args, t)
	}
	reg := telemetry.NewRegistry()
	st, err := cf.NewStack(reg, addrs, cliutil.StackOptions{
		Metrics:       "transport",
		Seed:          1, // core's default
		Config:        cfg,
		LookupTimeout: *lookupTimeout,
		Topology:      tp,
		ClientZone:    *clientZone,
	})
	if err != nil {
		return err
	}
	defer st.Client.Close()
	if *showTelemetry {
		defer func() { reg.Snapshot().Format(os.Stderr) }()
	}
	svc := st.Service
	ctx, cancel := context.WithTimeout(context.Background(), cf.Timeout*2)
	defer cancel()

	switch verb {
	case "place":
		if err := svc.Place(ctx, key, args[2:]); err != nil {
			return err
		}
		fmt.Printf("placed %d entries for %q with %v\n", len(args)-2, key, cfg)
	case "add":
		if err := svc.Add(ctx, key, args[2]); err != nil {
			return err
		}
		fmt.Printf("added %q to %q\n", args[2], key)
	case "delete":
		if err := svc.Delete(ctx, key, args[2]); err != nil {
			return err
		}
		fmt.Printf("deleted %q from %q\n", args[2], key)
	case "lookup":
		res, err := svc.PartialLookup(ctx, key, t)
		if err != nil && !errors.Is(err, core.ErrPartialResult) {
			return err
		}
		st := status(len(res.Entries), t)
		if err != nil {
			st = "PARTIAL (deadline)"
		}
		fmt.Printf("partial_lookup(%q, %d): %d entries from %d servers (%s)\n",
			key, t, len(res.Entries), res.Contacted, st)
		for _, v := range res.Entries {
			fmt.Println(" ", v)
		}
	case "mplace":
		items := make([]core.PlaceItem, 0, len(args)-1)
		for _, spec := range args[1:] {
			k, list, ok := strings.Cut(spec, "=")
			if !ok || k == "" {
				return fmt.Errorf("mplace: spec %q is not KEY=v1,v2,...", spec)
			}
			var entries []core.Entry
			for _, v := range strings.Split(list, ",") {
				if v != "" {
					entries = append(entries, v)
				}
			}
			items = append(items, core.PlaceItem{Key: k, Entries: entries})
		}
		if err := batchErr("mplace", args[1:], svc.PlaceBatch(ctx, items)); err != nil {
			return err
		}
		fmt.Printf("placed %d keys with %v (batched)\n", len(items), cfg)
	case "madd":
		items := make([]core.AddItem, 0, len(args)-1)
		keys := make(map[string]bool)
		for _, spec := range args[1:] {
			k, v, ok := strings.Cut(spec, "=")
			if !ok || k == "" || v == "" {
				return fmt.Errorf("madd: spec %q is not KEY=ENTRY", spec)
			}
			items = append(items, core.AddItem{Key: k, Entry: v})
			keys[k] = true
		}
		if err := batchErr("madd", args[1:], svc.AddBatch(ctx, items)); err != nil {
			return err
		}
		fmt.Printf("added %d entries across %d keys (batched)\n", len(items), len(keys))
	case "mlookup":
		keys := args[2:]
		for i, o := range svc.PartialLookupBatch(ctx, keys, t) {
			switch {
			case o.Err != nil && errors.Is(o.Err, core.ErrPartialResult):
				fmt.Printf("%s: %d entries from %d servers (PARTIAL, deadline) %v\n",
					keys[i], len(o.Result.Entries), o.Result.Contacted, o.Result.Entries)
			case o.Err != nil:
				fmt.Printf("%s: ERROR %v\n", keys[i], o.Err)
			default:
				fmt.Printf("%s: %d entries from %d servers (%s) %v\n",
					keys[i], len(o.Result.Entries), o.Result.Contacted, status(len(o.Result.Entries), t), o.Result.Entries)
			}
		}
	case "dump":
		for i := range addrs {
			reply, err := st.Client.Call(ctx, i, wire.Dump{Key: key})
			if err != nil {
				fmt.Printf("server %d (%s): DOWN (%v)\n", i, addrs[i], err)
				continue
			}
			dr, ok := reply.(wire.DumpReply)
			if !ok || dr.Err != "" {
				fmt.Printf("server %d (%s): error %v\n", i, addrs[i], reply)
				continue
			}
			fmt.Printf("server %d (%s): %d entries %v\n", i, addrs[i], len(dr.Entries), dr.Entries)
		}
	default:
		return fmt.Errorf("unknown verb %q", verb)
	}
	return nil
}

// runProxy drives one verb against a plsproxy front tier with raw wire
// messages. The proxy owns routing, coalescing, and the result cache;
// this side is a dumb pipe plus pretty-printing.
func runProxy(addrs []string, cfg wire.Config, timeout time.Duration, verb string, args []string, t int) error {
	client := transport.NewClient(addrs, transport.WithTimeout(timeout))
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), timeout*2)
	defer cancel()
	ackCall := func(msg wire.Message, what string) error {
		reply, err := client.Call(ctx, 0, msg)
		if err != nil {
			return err
		}
		if ack, ok := reply.(wire.Ack); !ok || ack.Err != "" {
			return fmt.Errorf("%s: %v", what, reply)
		}
		fmt.Printf("%s: ok (via proxy)\n", what)
		return nil
	}
	switch verb {
	case "place":
		if len(args) < 3 {
			return fmt.Errorf("usage: place KEY v1 [v2...]")
		}
		return ackCall(wire.Place{Key: args[1], Config: cfg, Entries: args[2:]},
			fmt.Sprintf("place %q (%d entries)", args[1], len(args)-2))
	case "add":
		return ackCall(wire.Add{Key: args[1], Config: cfg, Entry: args[2]},
			fmt.Sprintf("add %q to %q", args[2], args[1]))
	case "delete":
		return ackCall(wire.Delete{Key: args[1], Config: cfg, Entry: args[2]},
			fmt.Sprintf("delete %q from %q", args[2], args[1]))
	case "lookup":
		reply, err := client.Call(ctx, 0, wire.Lookup{Key: args[1], T: t})
		if err != nil {
			return err
		}
		lr, ok := reply.(wire.LookupReply)
		if !ok || lr.Err != "" {
			return fmt.Errorf("lookup %q: %v", args[1], reply)
		}
		fmt.Printf("partial_lookup(%q, %d): %d entries via proxy (%s)\n", args[1], t, len(lr.Entries), status(len(lr.Entries), t))
		for _, v := range lr.Entries {
			fmt.Println(" ", v)
		}
		return nil
	case "mlookup":
		items := make([]wire.Lookup, 0, len(args)-2)
		for _, k := range args[2:] {
			items = append(items, wire.Lookup{Key: k, T: t})
		}
		reply, err := client.Call(ctx, 0, wire.LookupBatch{Items: items})
		if err != nil {
			return err
		}
		lbr, ok := reply.(wire.LookupBatchReply)
		if !ok || lbr.Err != "" {
			return fmt.Errorf("mlookup: %v", reply)
		}
		for i, r := range lbr.Replies {
			if r.Err != "" {
				fmt.Printf("%s: ERROR %s\n", items[i].Key, r.Err)
				continue
			}
			fmt.Printf("%s: %d entries via proxy (%s) %v\n", items[i].Key, len(r.Entries), status(len(r.Entries), t), r.Entries)
		}
		return nil
	default:
		return fmt.Errorf("verb %q is not available through -proxy (the proxy serves place|add|delete|lookup|mlookup|join|drain)", verb)
	}
}

// status names how a lookup for t entries that returned n ended.
func status(n, t int) string {
	if n < t {
		return "UNSATISFIED"
	}
	return "satisfied"
}

// batchErr reports each failed item of a batch verb, keyed by its
// command-line spec, and fails the verb if any did.
func batchErr(verb string, specs []string, errs []error) error {
	failed := 0
	for i, err := range errs {
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "  %s: %v\n", specs[i], err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%s: %d of %d items failed", verb, failed, len(errs))
	}
	return nil
}

// runMembership sends a join or drain to one coordinator — through
// -proxy, to the proxy, which forwards it — and prints the update the
// coordinator committed. Its deadline is minutes, not the data-path
// -timeout.
func runMembership(addrs []string, verb, arg string, viaProxy bool) error {
	var msg wire.Message = wire.Join{Addr: arg}
	coordinator := 0
	if verb == "drain" {
		idx, err := strconv.Atoi(arg)
		if err != nil {
			return fmt.Errorf("usage: drain INDEX (got %q)", arg)
		}
		msg = wire.Leave{Server: idx}
		// Coordinate from a survivor when one exists; a leaver can
		// coordinate its own drain too, this just keeps the reply path
		// independent of its shutdown.
		if idx == 0 && len(addrs) > 1 && !viaProxy {
			coordinator = 1
		}
	}
	m, err := cliutil.CommitMembership(context.Background(), addrs[coordinator], msg, 2*time.Minute)
	if err != nil {
		return fmt.Errorf("%s %s: %w", verb, arg, err)
	}
	if m.Leaving >= 0 {
		fmt.Printf("drained server %d: cluster now %d members at epoch %d (-servers %s)\n",
			m.Leaving, m.NewN, m.Epoch, strings.Join(m.Addrs, ","))
	} else {
		fmt.Printf("joined %s as server %d: cluster now %d members at epoch %d\n", arg, m.OldN, m.NewN, m.Epoch)
	}
	return nil
}

// runStats fetches a node's telemetry snapshot from its admin endpoint
// and renders it.
func runStats(addr string, raw bool) error {
	url := addr
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	url = strings.TrimRight(url, "/") + "/metrics"
	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return fmt.Errorf("read %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if raw {
		fmt.Println(strings.TrimSpace(string(body)))
		return nil
	}
	snap, err := telemetry.ParseSnapshot(body)
	if err != nil {
		return err
	}
	snap.Format(os.Stdout)
	return nil
}
