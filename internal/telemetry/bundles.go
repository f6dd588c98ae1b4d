package telemetry

import (
	"runtime"
	"time"
)

// TransportMetrics groups the per-server metrics recorded on the call
// path: every call, its latency, and its outcome, plus the TCP client's
// connection behavior (fresh dials, and dial failures).
type TransportMetrics struct {
	// Calls counts attempts delivered to each server (retries and
	// hedges each count: they cost the network and the server).
	Calls *CounterVec
	// Errors counts failed calls per server, whatever the cause:
	// genuine failures, chaos-injected drops and partitions, and TCP
	// dial failures.
	Errors *CounterVec
	// Latency is the per-server call latency distribution.
	Latency *HistogramVec
	// Dials counts checkouts that had to dial a fresh connection; every
	// other call rode a live multiplexed one, so calls minus dials is
	// the reuse count.
	Dials *CounterVec
	// DialErrors counts dials that failed per server. The call that
	// needed the connection fails with it and is counted in Errors where
	// calls are counted (transport.Instrument), once.
	DialErrors *CounterVec
	// Frames counts frames written to sockets and Writes the write
	// syscalls that carried them, on whichever side owns the bundle:
	// request frames for a transport.Client, reply frames for a
	// transport.Server. Frames / Writes is the batching factor.
	Frames *Counter
	Writes *Counter
	// Inline counts requests a transport.Server answered on the
	// connection's reader goroutine, Detached those whose handler
	// detached to wait. Inline / (Inline + Detached) is the inline
	// fraction.
	Inline   *Counter
	Detached *Counter
	// ReadersStarted counts the goroutines a transport.Server started
	// to read connections: one per accepted connection, and one per
	// Detach that found no goroutine parked to take over.
	ReadersStarted *Counter
}

// NewTransportMetrics registers transport metrics for n servers under
// prefix (e.g. "transport" or "peer").
func NewTransportMetrics(r *Registry, prefix string, n int) *TransportMetrics {
	return &TransportMetrics{
		Calls:      r.NewCounterVec(prefix+".calls", n),
		Errors:     r.NewCounterVec(prefix+".errors", n),
		Latency:    r.NewDurationHistogramVec(prefix+".latency", n, DefaultLatencyBuckets),
		Dials:      r.NewCounterVec(prefix+".dials", n),
		DialErrors: r.NewCounterVec(prefix+".dial_errors", n),
		Frames:     r.NewCounter(prefix + ".frames_written"),
		Writes:     r.NewCounter(prefix + ".writes"),
	}
}

// NewServerMetrics registers under prefix the counters a
// transport.Server records — reply frames, writes, requests handled
// inline and detached — and leaves the caller-side metrics unset.
func NewServerMetrics(r *Registry, prefix string) *TransportMetrics {
	return &TransportMetrics{
		Frames:   r.NewCounter(prefix + ".frames_written"),
		Writes:   r.NewCounter(prefix + ".writes"),
		Inline:   r.NewCounter(prefix + ".handled_inline"),
		Detached: r.NewCounter(prefix + ".handled_detached"),

		ReadersStarted: r.NewCounter(prefix + ".readers_started"),
	}
}

// LookupMetrics groups the client lookup path metrics recorded by
// core.Service and, for the retries and hedges of its lookups, the
// transport.Retry it wraps them in.
type LookupMetrics struct {
	// Lookups counts PartialLookup invocations; Satisfied those that
	// met their target t, Unsatisfied those that returned thin answers,
	// and DeadlineExpired those cut short by the policy deadline (the
	// ErrPartialResult path).
	Lookups         *Counter
	Satisfied       *Counter
	Unsatisfied     *Counter
	DeadlineExpired *Counter
	// Retries counts per-probe retry attempts beyond the first;
	// HedgesFired counts hedged duplicates launched, HedgesWon those
	// whose reply arrived first.
	Retries     *Counter
	HedgesFired *Counter
	HedgesWon   *Counter
	// AchievedT is the distribution of answer sizes actually returned
	// (the operational achieved-t); Probes the servers contacted per
	// lookup (the paper's client lookup cost, Sec. 4.2); Latency the
	// end-to-end lookup latency.
	AchievedT *Histogram
	Probes    *Histogram
	Latency   *Histogram
}

// NewLookupMetrics registers lookup metrics under "lookup.".
func NewLookupMetrics(r *Registry) *LookupMetrics {
	return &LookupMetrics{
		Lookups:         r.NewCounter("lookup.total"),
		Satisfied:       r.NewCounter("lookup.satisfied"),
		Unsatisfied:     r.NewCounter("lookup.unsatisfied"),
		DeadlineExpired: r.NewCounter("lookup.deadline_expired"),
		Retries:         r.NewCounter("lookup.retries"),
		HedgesFired:     r.NewCounter("lookup.hedges_fired"),
		HedgesWon:       r.NewCounter("lookup.hedges_won"),
		AchievedT:       r.NewHistogram("lookup.achieved_t", DefaultCountBuckets),
		Probes:          r.NewHistogram("lookup.probes", DefaultCountBuckets),
		Latency:         r.NewDurationHistogram("lookup.latency", DefaultLatencyBuckets),
	}
}

// SelectorMetrics groups the counters recorded by the failure-aware
// server selector (internal/selector): routing-cache effectiveness and
// scoreboard interventions.
type SelectorMetrics struct {
	// CacheHits counts lookup orders that led with at least one cached
	// answering server; CacheMisses counts orders built with no cached
	// route for the key.
	CacheHits   *Counter
	CacheMisses *Counter
	// Demotions counts servers opened (pushed behind all others) after
	// crossing the consecutive-failure threshold.
	Demotions *Counter
	// HalfOpenProbes counts recovery trials: calls sent to an open
	// server whose probe window had elapsed.
	HalfOpenProbes *Counter
	// Invalidations counts routing-cache entries dropped by updates
	// (place invalidates the key; add/delete invalidate its negatives).
	Invalidations *Counter
}

// NewSelectorMetrics registers selector metrics under "selector.".
func NewSelectorMetrics(r *Registry) *SelectorMetrics {
	return &SelectorMetrics{
		CacheHits:      r.NewCounter("selector.cache_hits"),
		CacheMisses:    r.NewCounter("selector.cache_misses"),
		Demotions:      r.NewCounter("selector.demotions"),
		HalfOpenProbes: r.NewCounter("selector.half_open_probes"),
		Invalidations:  r.NewCounter("selector.invalidations"),
	}
}

// NodeMetrics groups the per-server operation throughput counters
// recorded by node.Node as it handles protocol messages.
type NodeMetrics struct {
	Places  *CounterVec
	Adds    *CounterVec
	Deletes *CounterVec
	Lookups *CounterVec
	// LocalDeliveries counts the peer messages a server addressed to
	// itself and handled in process, which its peer transport's Calls
	// never sees: an update's messages are peer calls plus these.
	LocalDeliveries *CounterVec
}

// NewNodeMetrics registers per-op node metrics for n servers under
// "node.".
func NewNodeMetrics(r *Registry, n int) *NodeMetrics {
	return &NodeMetrics{
		Places:  r.NewCounterVec("node.place", n),
		Adds:    r.NewCounterVec("node.add", n),
		Deletes: r.NewCounterVec("node.delete", n),
		Lookups: r.NewCounterVec("node.lookup", n),

		LocalDeliveries: r.NewCounterVec("node.local_deliveries", n),
	}
}

// WALMetrics groups the durability-layer metrics recorded by the
// write-ahead log and its checkpoints (internal/store, node recovery):
// the fsync latency distribution, bytes and records appended
// (checkpoint records included), and checkpoint cadence.
type WALMetrics struct {
	// FsyncLatency is the distribution of fsync(2) calls on WAL
	// segments; under the batch policy one observation covers a whole
	// group commit.
	FsyncLatency *Histogram
	// Bytes and Records count WAL payload bytes and records appended.
	Bytes   *Counter
	Records *Counter
	// Fsyncs counts fsync calls; Records/Fsyncs is the group-commit
	// amortization factor.
	Fsyncs *Counter
	// SnapshotDuration tracks checkpoints; Snapshots counts them.
	// SnapshotBytes is the active segment's size after the last one.
	SnapshotDuration *Histogram
	Snapshots        *Counter
	SnapshotBytes    *Gauge
	// LastSnapshot holds the unix-nano completion time of the newest
	// checkpoint, feeding the wal.snapshot_age_ns gauge.
	LastSnapshot *Gauge
}

// NewWALMetrics registers WAL metrics under "wal.", including a
// wal.snapshot_age_ns gauge evaluated at snapshot time (-1 until a
// first snapshot lands).
func NewWALMetrics(r *Registry) *WALMetrics {
	m := &WALMetrics{
		FsyncLatency:     r.NewDurationHistogram("wal.fsync_latency", DefaultLatencyBuckets),
		Bytes:            r.NewCounter("wal.bytes"),
		Records:          r.NewCounter("wal.records"),
		Fsyncs:           r.NewCounter("wal.fsyncs"),
		SnapshotDuration: r.NewDurationHistogram("wal.snapshot_duration", DefaultLatencyBuckets),
		Snapshots:        r.NewCounter("wal.snapshots"),
		SnapshotBytes:    r.NewGauge("wal.snapshot_bytes"),
		LastSnapshot:     r.NewGauge("wal.last_snapshot_unixns"),
	}
	m.LastSnapshot.Set(-1)
	r.NewGaugeFunc("wal.snapshot_age_ns", func() int64 {
		at := m.LastSnapshot.Value()
		if at < 0 {
			return -1
		}
		return time.Now().UnixNano() - at
	})
	return m
}

// ProxyMetrics instruments the plsproxy front tier (internal/proxy):
// result-cache effectiveness, singleflight coalescing, and what
// updates did to cached answers.
type ProxyMetrics struct {
	// Lookups counts client lookups terminated by the proxy (batch
	// items each count). CacheHits answered straight from the result
	// cache; CacheExpired found an entry past its TTL (counted also as
	// a miss); CacheMisses went to the backing service.
	Lookups      *Counter
	CacheHits    *Counter
	CacheMisses  *Counter
	CacheExpired *Counter
	// Coalesced counts lookups that joined another caller's in-flight
	// flight instead of probing the cluster themselves; Flights counts
	// flights actually flown (leaders). Coalesced/(Coalesced+Flights)
	// is the hot-key collapse ratio.
	Coalesced *Counter
	Flights   *Counter
	// Invalidations counts acked updates that dropped a cached answer
	// of their key or detached one of its in-flight lookups;
	// AnswersPatched counts deletes that took their entry out of a
	// cached answer which then stayed. EpochFlushes counts whole-cache
	// flushes on membership-epoch changes. StaleFills counts completed
	// flights whose result was discarded instead of cached because an
	// update was acked while the flight was out (the stale-fill guard).
	Invalidations  *Counter
	AnswersPatched *Counter
	EpochFlushes   *Counter
	StaleFills     *Counter
	// Updates counts add/delete/place operations proxied through to the
	// backing service.
	Updates *Counter
}

// NewProxyMetrics registers proxy metrics under "proxy.".
func NewProxyMetrics(r *Registry) *ProxyMetrics {
	return &ProxyMetrics{
		Lookups:        r.NewCounter("proxy.lookups"),
		CacheHits:      r.NewCounter("proxy.cache_hits"),
		CacheMisses:    r.NewCounter("proxy.cache_misses"),
		CacheExpired:   r.NewCounter("proxy.cache_expired"),
		Coalesced:      r.NewCounter("proxy.coalesced"),
		Flights:        r.NewCounter("proxy.flights"),
		Invalidations:  r.NewCounter("proxy.invalidations"),
		AnswersPatched: r.NewCounter("proxy.answers_patched"),
		EpochFlushes:   r.NewCounter("proxy.epoch_flushes"),
		StaleFills:     r.NewCounter("proxy.stale_fills"),
		Updates:        r.NewCounter("proxy.updates"),
	}
}

// RegisterRuntimeMetrics adds Go runtime gauges (goroutines, heap
// bytes, GC cycles) under "go.", evaluated at snapshot time.
func RegisterRuntimeMetrics(r *Registry) {
	r.NewGaugeFunc("go.goroutines", func() int64 {
		return int64(runtime.NumGoroutine())
	})
	r.NewGaugeFunc("go.heap_alloc_bytes", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	})
	r.NewGaugeFunc("go.total_alloc_bytes", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.TotalAlloc)
	})
	r.NewGaugeFunc("go.num_gc", func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.NumGC)
	})
}

// RepairMetrics instruments the anti-entropy repair daemon.
type RepairMetrics struct {
	// Sweeps counts sweep attempts; SweepsSkipped counts those skipped
	// because the failure epoch had not advanced (a converged cluster
	// pays nothing for repair).
	Sweeps        *Counter
	SweepsSkipped *Counter
	// KeysRepaired counts keys for which at least one entry moved;
	// EntriesMoved counts entries accepted by receivers.
	KeysRepaired *Counter
	EntriesMoved *Counter
	// Queries and Pushes count repair wire messages sent.
	Queries *Counter
	Pushes  *Counter
	// UnderReplicated is the deficit the most recent sweep detected:
	// (entry, server) pairs the placement scheme requires but that were
	// missing before repair.
	UnderReplicated *Gauge
}

// NewRepairMetrics registers repair-daemon metrics under "repair.".
func NewRepairMetrics(r *Registry) *RepairMetrics {
	return &RepairMetrics{
		Sweeps:          r.NewCounter("repair.sweeps"),
		SweepsSkipped:   r.NewCounter("repair.sweeps_skipped"),
		KeysRepaired:    r.NewCounter("repair.keys_repaired"),
		EntriesMoved:    r.NewCounter("repair.entries_moved"),
		Queries:         r.NewCounter("repair.queries"),
		Pushes:          r.NewCounter("repair.pushes"),
		UnderReplicated: r.NewGauge("repair.under_replicated"),
	}
}
