package main

import (
	"fmt"

	"repro/internal/telemetry"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names, units, directions and bounds (metrics_test.go keeps them in
// step). applies is nil when the metric's layer is on every workload's
// path; where it is not, the JSON result carries 0 for it (the driver
// wants every declared metric on every workload) and the printed report
// leaves it out.
type metricDef struct {
	name, unit, better string
	bound              float64
	applies            func(workload) bool
}

func onProxy(w workload) bool   { return w.proxy }
func onDirect(w workload) bool  { return !w.proxy }
func onDurable(w workload) bool { return w.durable }

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "throughput_ops_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "cpu_us_per_op", unit: "us", better: "lower", bound: 0.25},
	{name: "lookup_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "update_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "probes_per_lookup", unit: "count", better: "lower", bound: 0.25},
}

var perLayer = []metricDef{
	{name: "client.lookup_p99_us", unit: "us", better: "lower"},
	{name: "client.update_p99_us", unit: "us", better: "lower"},
	{name: "client.window_iqr_frac", unit: "fraction", better: "lower"},
	{name: "driver.self_us_per_lookup", unit: "us", better: "lower", applies: onDirect},
	{name: "driver.self_us_per_update", unit: "us", better: "lower", applies: onDirect},
	{name: "driver.achieved_t_mean", unit: "count", better: "higher"},
	{name: "driver.retries_per_op", unit: "count", better: "lower"},
	{name: "selector.order_ns", unit: "ns", better: "lower"},
	{name: "selector.route_cache_hit_frac", unit: "fraction", better: "higher"},
	{name: "proxy.self_us_per_lookup", unit: "us", better: "lower", applies: onProxy},
	{name: "proxy.cache_hit_frac", unit: "fraction", better: "higher", applies: onProxy},
	{name: "proxy.expired_frac", unit: "fraction", better: "lower", applies: onProxy},
	{name: "proxy.coalesced_frac", unit: "fraction", better: "higher", applies: onProxy},
	{name: "proxy.invalidations_per_update", unit: "count", better: "lower", applies: onProxy},
	{name: "wire.encode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_msg", unit: "ns", better: "lower"},
	{name: "wire.allocs_per_roundtrip", unit: "count", better: "lower"},
	{name: "wire.bytes_per_lookup", unit: "bytes", better: "lower"},
	{name: "wire.bytes_per_update", unit: "bytes", better: "lower"},
	{name: "transport.self_us_per_call", unit: "us", better: "lower"},
	{name: "transport.calls_per_op", unit: "count", better: "lower"},
	{name: "transport.errors_per_call", unit: "count", better: "lower"},
	{name: "transport.dials", unit: "count", better: "lower"},
	{name: "node.handle_us_per_lookup", unit: "us", better: "lower"},
	{name: "node.handle_us_per_update", unit: "us", better: "lower"},
	{name: "node.peer_calls_per_update", unit: "count", better: "lower"},
	{name: "node.peer_wait_us_per_update", unit: "us", better: "lower"},
	{name: "store.read_ns_per_lookup", unit: "ns", better: "lower"},
	{name: "store.update_ns_per_op", unit: "ns", better: "lower"},
	{name: "wal.fsyncs_per_update", unit: "count", better: "lower", applies: onDurable},
	{name: "wal.records_per_fsync", unit: "count", better: "higher", applies: onDurable},
	{name: "wal.bytes_per_update", unit: "bytes", better: "lower", applies: onDurable},
	{name: "wal.fsync_mean_us", unit: "us", better: "lower", applies: onDurable},
	{name: "wal.append_wait_us_1_writer", unit: "us", better: "lower", applies: onDurable},
	{name: "wal.append_wait_us_all_writers", unit: "us", better: "lower", applies: onDurable},
	{name: "wal.snapshots", unit: "count", better: "higher", applies: onDurable},
	{name: "wal.recovery_s", unit: "s", better: "lower", applies: onDurable},
	{name: "wal.recovered_ok", unit: "count", better: "higher", applies: onDurable},
	{name: "proc.alloc_bytes_per_op", unit: "bytes", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.gc_pause_frac", unit: "fraction", better: "lower"},
	{name: "proc.rss_peak_mb", unit: "MB", better: "lower"},
	{name: "ref.machine_speed", unit: "fraction", better: "higher"},
	{name: "trace.overhead_frac", unit: "fraction", better: "lower"},
}

func (d metricDef) appliesTo(w workload) bool { return d.applies == nil || d.applies(w) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// probesPerLookup is the paper's lookup cost: servers contacted for
// lookups per client lookup. A direct client reads it off its own
// results; behind the proxy it is what the backend service contacted,
// so cache hits and coalesced lookups count 0.
func probesPerLookup(w workload, tot totals, before, after telemetry.Snapshot) float64 {
	if !w.proxy {
		return ratio(float64(tot.contacted), float64(tot.lookups))
	}
	probes, _ := histSumDelta(before, after, "lookup.probes")
	return ratio(probes, float64(tot.lookups))
}

func endToEndMetrics(res *runResult, w workload, s summary, tot totals, before, after telemetry.Snapshot, setupS float64) {
	m := res.metrics
	m["setup_s"] = setupS
	m["throughput_ops_s"] = s.throughput
	m["cpu_us_per_op"] = s.cpuPerOp
	m["lookup_p50_us"] = s.lookupP50
	m["update_p50_us"] = s.updateP50
	m["probes_per_lookup"] = probesPerLookup(w, tot, before, after)
	calm := fmt.Sprintf("fastest %d of %d windows", s.calmWindows, s.windows)
	res.detail["setup_s"] = "median of the run's set-ups, at reference speed"
	res.detail["throughput_ops_s"] = fmt.Sprintf("%s, at reference speed; as measured: all-window median %.0f, iqr %.1f%%, machine speed %.2f",
		calm, s.rawThroughput.median, 100*s.rawThroughput.iqrFrac, s.speed)
	res.detail["cpu_us_per_op"] = calm
	res.detail["lookup_p50_us"] = fmt.Sprintf("%s, %d samples", calm, s.calmLookups)
	res.detail["update_p50_us"] = fmt.Sprintf("%s, %d samples", calm, s.calmUpdates)
	res.detail["probes_per_lookup"] = fmt.Sprintf("%d lookups", tot.lookups)
}

// perLayerMetrics fills the per-layer budget from a plain phase, a
// traced phase on the same warm cluster, the telemetry counters over
// both, and the direct layer probes.
func perLayerMetrics(res *runResult, w workload, plain, traced *phase, tot totals, before, after telemetry.Snapshot, lp *layerProbe) error {
	m := res.metrics
	ps, ts := plain.summarize(), traced.summarize()
	lookups, updates := float64(tot.lookups), float64(tot.updates)
	delta := func(name string) float64 { return counterDelta(before, after, name) }

	m["client.lookup_p99_us"] = ps.lookupP99
	m["client.update_p99_us"] = ps.updateP99
	m["client.window_iqr_frac"] = ps.rawThroughput.iqrFrac
	res.detail["client.lookup_p99_us"] = fmt.Sprintf("%d samples", ps.lookups)
	res.detail["client.update_p99_us"] = fmt.Sprintf("%d samples", ps.updates)
	m["driver.achieved_t_mean"] = ratio(float64(tot.entries), lookups)
	m["ref.machine_speed"] = ps.speed
	m["trace.overhead_frac"] = 1 - ratio(ts.throughput, ps.throughput)

	// Trace-derived: totals over the traced phase, per traced op.
	st := lp.totals
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	tLookups := float64(st.lookupCount[spanOp])
	tUpdates := float64(st.updateCount[spanOp])
	tOps := tLookups + tUpdates
	if !w.proxy {
		m["driver.self_us_per_lookup"] = ratio(us(st.lookupSelf[spanOp]), tLookups)
		m["driver.self_us_per_update"] = ratio(us(st.updateSelf[spanOp]), tUpdates)
	} else {
		m["proxy.self_us_per_lookup"] = ratio(us(st.lookupSelf[spanFrontHandle]), tLookups)
	}
	calls := st.count[spanFrontCall] + st.count[spanNodeCall] + st.count[spanPeerCall]
	callErrs := st.failed[spanFrontCall] + st.failed[spanNodeCall] + st.failed[spanPeerCall]
	callDur := st.dur[spanFrontCall] + st.dur[spanNodeCall] + st.dur[spanPeerCall]
	handleDur := st.dur[spanFrontHandle] + st.dur[spanNodeHandle]
	m["transport.self_us_per_call"] = ratio(us(callDur-handleDur), float64(calls))
	m["transport.calls_per_op"] = ratio(float64(calls), tOps)
	m["transport.errors_per_call"] = ratio(float64(callErrs), float64(calls))
	m["driver.retries_per_op"] = ratio(float64(st.failed[spanFrontCall]+st.failed[spanNodeCall])+delta("lookup.retries"), tOps)
	m["node.handle_us_per_lookup"] = ratio(us(st.lookupSelf[spanNodeHandle]), tLookups)
	m["node.handle_us_per_update"] = ratio(us(st.updateSelf[spanNodeHandle]), tUpdates)
	m["node.peer_calls_per_update"] = ratio(float64(st.count[spanPeerCall]), tUpdates)
	m["node.peer_wait_us_per_update"] = ratio(us(st.dur[spanNodeHandle]-st.self[spanNodeHandle]), tUpdates)

	m["transport.dials"] = delta("client.dials") + delta("peer.dials") + delta("front.dials")
	m["selector.route_cache_hit_frac"] = ratio(delta("selector.cache_hits"), delta("selector.cache_hits")+delta("selector.cache_misses"))
	if w.proxy {
		pl := delta("proxy.lookups")
		m["proxy.cache_hit_frac"] = ratio(delta("proxy.cache_hits"), pl)
		m["proxy.expired_frac"] = ratio(delta("proxy.cache_expired"), pl)
		m["proxy.coalesced_frac"] = ratio(delta("proxy.coalesced"), pl)
		m["proxy.invalidations_per_update"] = ratio(delta("proxy.invalidations"), delta("proxy.updates"))
	}
	if w.durable {
		fsyncNs, fsyncs := histSumDelta(before, after, "wal.fsync_latency")
		m["wal.fsyncs_per_update"] = ratio(delta("wal.fsyncs"), updates)
		m["wal.records_per_fsync"] = ratio(delta("wal.records"), delta("wal.fsyncs"))
		m["wal.bytes_per_update"] = ratio(delta("wal.bytes"), updates)
		m["wal.fsync_mean_us"] = ratio(fsyncNs/1e3, fsyncs)
		m["wal.snapshots"] = delta("wal.snapshots")
	}

	// Process-wide, from the plain phase only: tracing allocates.
	plainOps := float64(ps.lookups + ps.updates)
	m["proc.alloc_bytes_per_op"] = ratio(float64(plain.mem[1].TotalAlloc-plain.mem[0].TotalAlloc), plainOps)
	m["proc.allocs_per_op"] = ratio(float64(plain.mem[1].Mallocs-plain.mem[0].Mallocs), plainOps)
	m["proc.gc_pause_frac"] = ratio(float64(plain.mem[1].PauseTotalNs-plain.mem[0].PauseTotalNs), float64(plain.wall))
	m["proc.rss_peak_mb"] = plain.rssMB

	return lp.direct(m, w, st, tLookups, tUpdates)
}
