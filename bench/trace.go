package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Span names: where in the stack the span was recorded. All spans are
// recorded from this package, around calls through the public seams
// transport.Caller and transport.Handler.
type spanName uint8

const (
	spanOp          spanName = iota // one client operation, as the caller sees it
	spanFrontCall                   // client -> plsproxy call
	spanFrontHandle                 // proxy.Handle
	spanNodeCall                    // client or proxy backend -> node call
	spanPeerCall                    // node -> node call
	spanNodeHandle                  // node.Handle
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.op", "front.call", "proxy.handle", "node.call", "peer.call", "node.handle",
}

// span is one timed interval. Spans of one tree share req, the id of
// the tree's root: a client op and the calls it makes form one tree; a
// server-side handle span roots its own tree, because the wire carries
// no trace context yet (ROADMAP 1a).
type span struct {
	id, parent, req uint32
	name            spanName
	kind            wire.Kind
	failed          bool
	start, end      int64 // ns since the tracer's epoch
}

type spanCtx struct{ id, req uint32 }

type spanCtxKey struct{}

// msgSample is one request/reply pair seen on the wire, kept for the
// direct codec timings.
type msgSample struct{ req, reply wire.Message }

const (
	traceShards    = 16
	msgSampleEvery = 64
	msgSampleCap   = 512
)

// tracer records spans in memory while on is set; a nil *tracer records
// nothing and wraps nothing.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint32
	shards [traceShards]struct {
		mu    sync.Mutex
		spans []span
	}
	calls  atomic.Uint64
	msgMu  sync.Mutex
	msgs   []msgSample
	msgPos int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) record(s span) {
	sh := &t.shards[s.id%traceShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// take returns every recorded span and empties the tracer.
func (t *tracer) take() []span {
	var all []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		all = append(all, sh.spans...)
		sh.spans = nil
		sh.mu.Unlock()
	}
	return all
}

func (t *tracer) sampleMsg(req, reply wire.Message) {
	if t.calls.Add(1)%msgSampleEvery != 0 {
		return
	}
	t.msgMu.Lock()
	if len(t.msgs) < msgSampleCap {
		t.msgs = append(t.msgs, msgSample{req, reply})
	} else {
		t.msgs[t.msgPos%msgSampleCap] = msgSample{req, reply}
	}
	t.msgPos++
	t.msgMu.Unlock()
}

// messages returns the sampled request/reply pairs.
func (t *tracer) messages() []msgSample {
	t.msgMu.Lock()
	defer t.msgMu.Unlock()
	return append([]msgSample(nil), t.msgs...)
}

// startOp opens a client-op span and returns the context that makes
// the calls below it its children.
func (t *tracer) startOp(ctx context.Context) (context.Context, uint32, int64) {
	id := t.nextID.Add(1)
	return context.WithValue(ctx, spanCtxKey{}, spanCtx{id, id}), id, t.now()
}

func (t *tracer) endOp(id uint32, kind wire.Kind, failed bool, start int64) {
	t.record(span{id: id, req: id, name: spanOp, kind: kind, failed: failed, start: start, end: t.now()})
}

// caller wraps a transport.Caller so each call is a child span of
// whatever span the context carries.
func (t *tracer) caller(inner transport.Caller, name spanName) transport.Caller {
	if t == nil {
		return inner
	}
	return &tracedCaller{inner: inner, t: t, name: name}
}

type tracedCaller struct {
	inner transport.Caller
	t     *tracer
	name  spanName
}

func (c *tracedCaller) NumServers() int { return c.inner.NumServers() }

func (c *tracedCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	if !c.t.on.Load() {
		return c.inner.Call(ctx, server, msg)
	}
	parent, _ := ctx.Value(spanCtxKey{}).(spanCtx)
	id := c.t.nextID.Add(1)
	if parent.req == 0 {
		parent.req = id
	}
	start := c.t.now()
	reply, err := c.inner.Call(ctx, server, msg)
	c.t.record(span{id: id, parent: parent.id, req: parent.req, name: c.name,
		kind: msg.Kind(), failed: err != nil, start: start, end: c.t.now()})
	if err == nil {
		c.t.sampleMsg(msg, reply)
	}
	return reply, err
}

// handler wraps a transport.Handler so each handled message roots a
// server-side span tree.
func (t *tracer) handler(inner transport.Handler, name spanName) transport.Handler {
	if t == nil {
		return inner
	}
	return &tracedHandler{inner: inner, t: t, name: name}
}

type tracedHandler struct {
	inner transport.Handler
	t     *tracer
	name  spanName
}

func (h *tracedHandler) Handle(ctx context.Context, msg wire.Message) wire.Message {
	if !h.t.on.Load() {
		return h.inner.Handle(ctx, msg)
	}
	id := h.t.nextID.Add(1)
	start := h.t.now()
	reply := h.inner.Handle(context.WithValue(ctx, spanCtxKey{}, spanCtx{id, id}), msg)
	h.t.record(span{id: id, req: id, name: h.name, kind: msg.Kind(), start: start, end: h.t.now()})
	return reply
}

// selfTimes returns, aligned with spans, each span's duration minus the
// part of its interval that its child spans cover. Overlapping children
// are counted once; a child is clipped to its parent's interval.
func selfTimes(spans []span) []int64 {
	// Span ids are handed out densely, so a slice indexes them; -1 marks
	// an id that was never recorded (a span still open when tracing
	// stopped, or no parent at all).
	var maxID uint32
	for _, s := range spans {
		maxID = max(maxID, s.id)
	}
	index := make([]int32, maxID+1)
	for i := range index {
		index[i] = -1
	}
	for i, s := range spans {
		index[s.id] = int32(i)
	}
	parentOf := func(s span) int32 {
		if s.parent == 0 || s.parent > maxID {
			return -1
		}
		return index[s.parent]
	}
	order := make([]int, 0, len(spans))
	for i, s := range spans {
		if parentOf(s) >= 0 {
			order = append(order, i)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.parent != sb.parent {
			return sa.parent < sb.parent
		}
		return sa.start < sb.start
	})
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	for i := 0; i < len(order); {
		p := parentOf(spans[order[i]])
		lo, hi := spans[p].start, spans[p].end
		covered, reach := int64(0), lo
		for ; i < len(order) && parentOf(spans[order[i]]) == p; i++ {
			c := spans[order[i]]
			s, e := max(c.start, reach), min(c.end, hi)
			if e > s {
				covered += e - s
				reach = e
			}
		}
		self[p] -= covered
	}
	return self
}

// spanTotals sums, per span name and wire kind class, what the per-layer
// metrics need from the trace.
type spanTotals struct {
	count, failed [numSpanNames]int64
	dur, self     [numSpanNames]int64
	// the same, split by whether the message kind belongs to the
	// lookup path or the update path
	lookupCount, lookupSelf [numSpanNames]int64
	updateCount, updateSelf [numSpanNames]int64
}

func lookupKind(k wire.Kind) bool { return k == wire.KindLookup || k == wire.KindLookupBatch }

func totalSpans(spans []span, self []int64) spanTotals {
	var t spanTotals
	for i, s := range spans {
		d := s.end - s.start
		t.count[s.name]++
		t.dur[s.name] += d
		t.self[s.name] += self[i]
		if s.failed {
			t.failed[s.name]++
		}
		if lookupKind(s.kind) {
			t.lookupCount[s.name]++
			t.lookupSelf[s.name] += self[i]
		} else {
			t.updateCount[s.name]++
			t.updateSelf[s.name] += self[i]
		}
	}
	return t
}

// traceFileSpans caps the spans written to disk: enough to read whole
// request trees by eye, small enough to open in an editor.
const traceFileSpans = 20000

type spanJSON struct {
	ID      uint32  `json:"id"`
	Parent  uint32  `json:"parent"`
	Req     uint32  `json:"req"`
	Name    string  `json:"name"`
	Kind    uint8   `json:"kind"`
	Failed  bool    `json:"failed,omitempty"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	SelfUs  float64 `json:"self_us"`
}

// writeTrace writes the earliest traceFileSpans spans and the totals of
// all of them to dir/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span, self []int64, metrics map[string]float64) (string, error) {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return spans[order[a]].start < spans[order[b]].start })
	if len(order) > traceFileSpans {
		order = order[:traceFileSpans]
	}
	out := struct {
		Workload   string             `json:"workload"`
		SpansTotal int                `json:"spans_total"`
		Metrics    map[string]float64 `json:"per_layer"`
		Spans      []spanJSON         `json:"spans"`
	}{Workload: workload, SpansTotal: len(spans), Metrics: metrics}
	for _, i := range order {
		s := spans[i]
		out.Spans = append(out.Spans, spanJSON{
			ID: s.id, Parent: s.parent, Req: s.req, Name: spanNames[s.name], Kind: uint8(s.kind),
			Failed: s.failed, StartUs: float64(s.start) / 1e3, EndUs: float64(s.end) / 1e3,
			SelfUs: float64(self[i]) / 1e3,
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	data, err := json.Marshal(out)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
