package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

const (
	// windowLen cuts a measured phase into windows. The sandbox's
	// neighbours slow syscall- and memory-heavy code by up to 4x for
	// tenths of a second at a time, so windows are short enough that
	// some of them fall between the bursts.
	windowLen = 250 * time.Millisecond
	// setupRepeats set-ups are timed per run and their median reported;
	// the last one's cluster is the one measured.
	setupRepeats = 3
	// setupSpeedBursts reference bursts are taken before and after each
	// set-up; the set-up time is scaled by the mean of the two medians.
	setupSpeedBursts = 5
	// warmOpsPerClient operations per client run through the real path
	// before the first window: connections dialled, caches and route
	// tables filled, snapshots latched. Work-based, not time-based, so
	// a faster system sets up faster.
	warmOpsPerClient = 2000
)

// client is one closed-loop caller: it owns a seeded service (or a
// socket to the proxy) and a pre-generated op stream, and issues the
// next op only when the previous one has been answered and checked.
type client struct {
	id  int
	c   *cluster
	m   *model
	ops []op
	pos int

	samples                    []sample
	lookups, updates, failed   int64
	contacted, entriesReturned int64
}

// sample is one completed, correct operation.
type sample struct {
	end    int64 // ns since the phase began
	lat    int64 // ns
	update bool
}

// do issues one operation and checks the answer.
func (cl *client) do(ctx context.Context, o op) bool {
	k := o.key()
	key := cl.m.keys[k]
	tr := cl.c.tr
	var spanID uint32
	var spanStart int64
	traced := tr != nil && tr.on.Load()
	if traced {
		ctx, spanID, spanStart = tr.startOp(ctx)
	}
	var ok bool
	kind := wire.KindLookup
	if !o.update() {
		cl.lookups++
		dels := cl.m.delAcks[k].Load()
		if cl.c.px == nil {
			res, err := cl.c.svcs[cl.id].PartialLookup(ctx, key, lookupT)
			cl.contacted += int64(res.Contacted)
			cl.entriesReturned += int64(len(res.Entries))
			ok = err == nil && checkLookup(cl.m, k, res.Entries, dels)
		} else {
			reply, err := cl.call(ctx, wire.Lookup{Key: key, T: lookupT})
			lr, isReply := reply.(wire.LookupReply)
			cl.entriesReturned += int64(len(lr.Entries))
			ok = err == nil && isReply && lr.Err == "" && checkLookup(cl.m, k, lr.Entries, dels)
		}
	} else {
		cl.updates++
		adding := !cl.m.present[k]
		kind = wire.KindDelete
		if adding {
			kind = wire.KindAdd
			cl.m.addStarts[k].Add(1)
		}
		ok = cl.update(ctx, k, adding) == nil
		switch {
		case !ok:
			cl.m.unknown[k] = true
		case adding:
			cl.m.present[k] = true
		default:
			cl.m.delAcks[k].Add(1)
			cl.m.present[k] = false
		}
	}
	if traced {
		tr.endOp(spanID, kind, !ok, spanStart)
	}
	if !ok {
		cl.failed++
	}
	return ok
}

func (cl *client) call(ctx context.Context, msg wire.Message) (wire.Message, error) {
	return cl.c.front[cl.id].Call(ctx, 0, msg)
}

func (cl *client) update(ctx context.Context, k int, add bool) error {
	key, e := cl.m.keys[k], cl.m.priv[k]
	if cl.c.px == nil {
		if add {
			return cl.c.svcs[cl.id].Add(ctx, key, core.Entry(e))
		}
		return cl.c.svcs[cl.id].Delete(ctx, key, core.Entry(e))
	}
	var msg wire.Message = wire.Delete{Key: key, Config: keyConfig(k), Entry: e}
	if add {
		msg = wire.Add{Key: key, Config: keyConfig(k), Entry: e}
	}
	reply, err := cl.call(ctx, msg)
	if err != nil {
		return err
	}
	if ack, isAck := reply.(wire.Ack); !isAck || ack.Err != "" {
		return fmt.Errorf("proxy update %s: %v", key, reply)
	}
	return nil
}

func (cl *client) next() op {
	o := cl.ops[cl.pos%len(cl.ops)]
	cl.pos++
	return o
}

// warm runs a fixed number of unrecorded operations on every client.
func warm(ctx context.Context, clients []*client, opsPerClient int) {
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				cl.do(ctx, cl.next())
			}
		}(cl)
	}
	wg.Wait()
}

// window is one stretch of undisturbed load between two pauses.
type window struct {
	start, end       int64   // ns since the phase began
	cpuStart, cpuEnd int64   // process user+sys CPU, ns
	speed            float64 // machine speed factor: mean of the bursts before and after
}

// phase is one measured stretch of load, cut into windows.
type phase struct {
	windows []window
	samples [][]sample
	drainNs int64 // longest wait for in-flight operations at a window's end
	mem     [2]runtime.MemStats
	wall    time.Duration
	rssMB   float64 // process peak RSS when the phase ended
}

// processUsage returns the process's user+sys CPU in ns and its peak
// resident set in MB (Linux reports ru_maxrss in KB).
func processUsage() (cpuNs int64, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano(), float64(ru.Maxrss) / 1024
}

// measure runs every client for nWindows windows of windowLen and
// records each correct operation. Between windows the clients are held
// (in-flight operations finish first) while the reference probe takes
// the machine's speed, so that each window can be scaled by the speed
// measured right before and right after it.
func measure(ctx context.Context, clients []*client, nWindows int, ref *refProbe) (*phase, error) {
	p := &phase{samples: make([][]sample, len(clients))}
	for _, cl := range clients {
		cl.samples = cl.samples[:0]
	}
	runtime.ReadMemStats(&p.mem[0])
	// A client holds the gate for reading around each operation; the
	// sampler takes it for writing to pause them all.
	var gate sync.RWMutex
	var stop atomic.Bool
	gate.Lock()
	start := time.Now()
	var wg sync.WaitGroup
	for _, cl := range clients {
		wg.Add(1)
		go func(cl *client) {
			defer wg.Done()
			for {
				gate.RLock()
				if stop.Load() {
					gate.RUnlock()
					return
				}
				o := cl.next()
				t0 := time.Now()
				ok := cl.do(ctx, o)
				t1 := time.Now()
				gate.RUnlock()
				if ok {
					cl.samples = append(cl.samples, sample{end: int64(t1.Sub(start)), lat: int64(t1.Sub(t0)), update: o.update()})
				}
			}
		}(cl)
	}
	speed, err := ref.burst()
	for i := 0; i < nWindows && err == nil; i++ {
		w := window{start: int64(time.Since(start))}
		w.cpuStart, _ = processUsage()
		gate.Unlock()
		time.Sleep(windowLen)
		w.end = int64(time.Since(start))
		w.cpuEnd, _ = processUsage()
		gate.Lock()
		p.drainNs = max(p.drainNs, int64(time.Since(start))-w.end)
		var after float64
		after, err = ref.burst()
		w.speed = (speed + after) / 2
		speed = after
		p.windows = append(p.windows, w)
	}
	stop.Store(true)
	gate.Unlock()
	wg.Wait()
	if err != nil {
		return nil, fmt.Errorf("reference probe: %w", err)
	}
	p.wall = time.Since(start)
	runtime.ReadMemStats(&p.mem[1])
	_, p.rssMB = processUsage()
	for i, cl := range clients {
		p.samples[i] = cl.samples
	}
	return p, nil
}

// summary is what one phase says about the end-to-end metrics.
//
// Each window's throughput, CPU per op and latencies are first scaled
// to the reference machine by the window's speed factor. Interference
// that the probe does not track still only ever slows the program
// down, and comes in bursts, so each timed metric is then estimated
// over the calm windows: the fastest quarter of the phase's windows by
// scaled throughput, pooled (ops and CPU summed, latencies merged). The
// unscaled median over all windows and their inter-quartile range are
// kept beside it, to show how disturbed the phase was.
type summary struct {
	throughput, cpuPerOp, lookupP50, updateP50 float64 // scaled, over the calm windows
	calmWindows, windows                       int
	calmLookups, calmUpdates                   int
	rawThroughput                              windowStat // unscaled, over all windows
	speed                                      float64    // median speed factor over all windows
	lookups, updates                           int        // correct ops that finished inside a window
	lookupP99, updateP99                       float64    // unscaled, over all windows
}

func (p *phase) summarize() summary {
	n := len(p.windows)
	ops := make([]int, n)
	lookupLat := make([][]float64, n)
	updateLat := make([][]float64, n)
	for _, ss := range p.samples {
		w := 0
		for _, s := range ss {
			for w < n && s.end > p.windows[w].end {
				w++
			}
			if w == n {
				break
			}
			if s.end < p.windows[w].start {
				continue // finished while the clients were being held
			}
			ops[w]++
			if us := float64(s.lat) / 1e3; s.update {
				updateLat[w] = append(updateLat[w], us)
			} else {
				lookupLat[w] = append(lookupLat[w], us)
			}
		}
	}
	seconds := func(w int) float64 { return float64(p.windows[w].end-p.windows[w].start) / 1e9 }
	order := make([]int, n)
	raw := make([]float64, n)
	speeds := make([]float64, n)
	for w := range order {
		order[w] = w
		raw[w] = float64(ops[w]) / seconds(w)
		speeds[w] = p.windows[w].speed
	}
	sort.SliceStable(order, func(a, b int) bool {
		return raw[order[a]]/speeds[order[a]] > raw[order[b]]/speeds[order[b]]
	})

	s := summary{windows: n, calmWindows: (n + 3) / 4, rawThroughput: newWindowStat(raw), speed: median(speeds)}
	var calmOps, calmScaledSeconds, calmScaledCPU float64
	var calmLookup, calmUpdate, allLookup, allUpdate []float64
	for rank, w := range order {
		if f := speeds[w]; rank < s.calmWindows {
			calmOps += float64(ops[w])
			calmScaledSeconds += seconds(w) * f
			calmScaledCPU += float64(p.windows[w].cpuEnd-p.windows[w].cpuStart) / 1e3 * f
			for _, us := range lookupLat[w] {
				calmLookup = append(calmLookup, us*f)
			}
			for _, us := range updateLat[w] {
				calmUpdate = append(calmUpdate, us*f)
			}
		}
		allLookup = append(allLookup, lookupLat[w]...)
		allUpdate = append(allUpdate, updateLat[w]...)
	}
	s.throughput = ratio(calmOps, calmScaledSeconds)
	s.cpuPerOp = ratio(calmScaledCPU, calmOps)
	s.lookupP50, s.updateP50 = median(calmLookup), median(calmUpdate)
	s.calmLookups, s.calmUpdates = len(calmLookup), len(calmUpdate)
	s.lookups, s.updates = len(allLookup), len(allUpdate)
	s.lookupP99, s.updateP99 = percentile(allLookup, 0.99), percentile(allUpdate, 0.99)
	return s
}

// runResult is everything one run of one workload produced.
type runResult struct {
	workload  workload
	traced    bool
	env       map[string]string
	metrics   map[string]float64
	detail    map[string]string // printed beside a metric: spread over windows, sample counts
	attempted int64
	failed    int64
	correct   bool
	notes     []string
	tracePath string
}

// runOptions are the knobs outside the fixed run shape.
type runOptions struct {
	seed      uint64
	seconds   int
	traced    bool
	smoke     bool
	allowDisk bool
	outDir    string
}

// totals are the clients' own counts over the measured phases.
type totals struct {
	lookups, updates, failed, contacted, entries int64
}

// takeTotals sums and resets the clients' counters.
func takeTotals(clients []*client) totals {
	var t totals
	for _, cl := range clients {
		t.lookups += cl.lookups
		t.updates += cl.updates
		t.failed += cl.failed
		t.contacted += cl.contacted
		t.entries += cl.entriesReturned
		cl.lookups, cl.updates, cl.failed, cl.contacted, cl.entriesReturned = 0, 0, 0, 0, 0
	}
	return t
}

// bed is one set-up: a warm cluster, the model of what it holds, and
// the clients that will drive it.
type bed struct {
	c       *cluster
	m       *model
	clients []*client
}

// setUp is what setup_s times: start the cluster, preload every key,
// verify the preload, and warm up through the measured path.
func setUp(ctx context.Context, w workload, seed uint64, streams [][]op, warmOps int, dataDir string, tr *tracer) (*bed, error) {
	b := &bed{m: newModel(w.keys)}
	var err error
	if b.c, err = startCluster(w, seed, len(streams), dataDir, tr); err != nil {
		return nil, err
	}
	if err := b.c.preload(ctx, b.m); err != nil {
		b.c.close()
		return nil, fmt.Errorf("preload: %w", err)
	}
	if err := b.c.verifyPreload(ctx, b.m); err != nil {
		b.c.close()
		return nil, err
	}
	for i, ops := range streams {
		b.clients = append(b.clients, &client{id: i, c: b.c, m: b.m, ops: ops})
	}
	warm(ctx, b.clients, warmOps)
	return b, nil
}

// runWorkload sets the system up setupRepeats times, measures the last
// set-up for opt.seconds, checks every answer, and (durable workloads)
// ends with the crash-recovery check.
func runWorkload(ctx context.Context, w workload, opt runOptions) (*runResult, error) {
	nclients := 4 * runtime.GOMAXPROCS(0)
	warmOps, repeats := warmOpsPerClient, setupRepeats
	if opt.smoke {
		w.keys /= 10
		warmOps /= 10
		repeats = 1
	}
	res := &runResult{workload: w, traced: opt.traced, metrics: map[string]float64{}, detail: map[string]string{}}
	dataDir, dataFS, err := chooseDataDir(w, opt.allowDisk)
	if err != nil {
		return nil, err
	}
	if dataDir != "" {
		defer os.RemoveAll(dataDir)
	}

	streams := make([][]op, nclients)
	for i := range streams {
		streams[i] = genStream(w, opt.seed, i, nclients, streamLen)
	}
	var tr *tracer
	if opt.traced {
		tr = newTracer()
	}
	ref, err := newRefProbe()
	if err != nil {
		return nil, fmt.Errorf("reference probe: %w", err)
	}
	defer ref.close()

	var (
		b *bed
		// set-up times as measured, and scaled to the reference machine
		rawSetups, setups []float64
	)
	for rep := 0; rep < repeats; rep++ {
		if b != nil {
			b.c.close()
		}
		speedBefore, err := ref.speed(setupSpeedBursts)
		if err != nil {
			return nil, fmt.Errorf("reference probe: %w", err)
		}
		t0 := time.Now()
		b, err = setUp(ctx, w, opt.seed, streams, warmOps, dataDir, tr)
		if err != nil {
			return nil, err
		}
		defer b.c.close()
		took := time.Since(t0).Seconds()
		speedAfter, err := ref.speed(setupSpeedBursts)
		if err != nil {
			return nil, fmt.Errorf("reference probe: %w", err)
		}
		rawSetups = append(rawSetups, took)
		setups = append(setups, took*(speedBefore+speedAfter)/2)
	}
	c, m, clients := b.c, b.m, b.clients
	// Warm-up answers were checked too: their failures count, their
	// latencies and probes do not.
	warmTot := takeTotals(clients)

	windows := opt.seconds * int(time.Second/windowLen)
	before := c.reg.Snapshot()
	var plain, traced *phase
	if !opt.traced {
		plain, err = measure(ctx, clients, windows, ref)
	} else {
		plain, err = measure(ctx, clients, windows/2, ref)
		if err == nil {
			tr.on.Store(true)
			traced, err = measure(ctx, clients, windows-windows/2, ref)
			tr.on.Store(false)
		}
	}
	if err != nil {
		return nil, err
	}
	after := c.reg.Snapshot()
	tot := takeTotals(clients)
	res.attempted = warmTot.lookups + warmTot.updates + tot.lookups + tot.updates
	res.failed = warmTot.failed + tot.failed

	var spans []span
	var self []int64
	if !opt.traced {
		endToEndMetrics(res, w, plain.summarize(), tot, before, after, median(setups))
	} else {
		spans = tr.take()
		self = selfTimes(spans)
		lp := &layerProbe{c: c, m: m, totals: totalSpans(spans, self), msgs: tr.messages(), dataDir: dataDir, clients: nclients}
		for _, o := range streams[0][:4096] {
			lp.keys = append(lp.keys, m.keys[o.key()])
		}
		if err := perLayerMetrics(res, w, plain, traced, tot, before, after, lp); err != nil {
			return nil, err
		}
	}
	res.env = environment(w, opt, nclients, windows, dataFS, plain, traced, rawSetups, warmTot.failed)

	if w.durable {
		secs, ok, err := c.crashAndRecover(m)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.failed++
			res.notes = append(res.notes, "crash recovery lost an acked update")
		}
		if opt.traced {
			res.metrics["wal.recovery_s"] = secs
			res.metrics["wal.recovered_ok"] = b2f(ok)
		}
	}
	if opt.traced {
		res.tracePath, err = writeTrace(opt.outDir, w.name, spans, self, res.metrics)
		if err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	res.correct = res.failed == 0
	return res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// counterDelta reads how much a named counter (or per-server counter
// vector, summed) grew between two registry snapshots.
func counterDelta(before, after telemetry.Snapshot, name string) float64 {
	sum := func(s telemetry.Snapshot) int64 {
		if v, ok := s.Counters[name]; ok {
			return v
		}
		var t int64
		for _, v := range s.PerServer[name] {
			t += v
		}
		return t
	}
	return float64(sum(after) - sum(before))
}

func histSumDelta(before, after telemetry.Snapshot, name string) (sum, count float64) {
	a, b := after.Histograms[name], before.Histograms[name]
	return float64(a.Sum - b.Sum), float64(a.Count - b.Count)
}
