package experiments

// The discrete-time simulation of Sec. 6.1: synthetic update streams
// with Poisson add arrivals and lifetime-scheduled deletes, generated
// in advance and replayed against a service, with a time-weighted
// observer for steady-state measures such as the Fixed-x lookup
// failure rate of Fig. 12.

import (
	"container/heap"
	"fmt"

	"repro/internal/entry"
	"repro/internal/stats"
)

// OpKind discriminates the operations of an update stream (add and
// delete) and of a trace (lookup, add and delete).
type OpKind int

// Operation kinds.
const (
	OpLookup OpKind = iota + 1
	OpAdd
	OpDelete
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpLookup:
		return "lookup"
	case OpAdd:
		return "add"
	case OpDelete:
		return "delete"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Event is one timestamped update: Kind is OpAdd or OpDelete.
type Event struct {
	Time  float64
	Kind  OpKind
	Entry entry.Entry
}

// StreamConfig parameterizes a synthetic update stream.
type StreamConfig struct {
	// MeanArrivalGap is the Poisson process's mean time between add
	// events; the paper uses 10 time units.
	MeanArrivalGap float64
	// SteadyState is the target number of entries h in the system.
	// Lifetimes should have mean MeanArrivalGap·SteadyState so the
	// expected population stays at h (Sec. 6.1).
	SteadyState int
	// Lifetime draws each entry's time-to-delete.
	Lifetime stats.LifetimeDist
	// Updates is the number of update events (adds + deletes) to
	// generate; the paper's default run is 10000.
	Updates int
}

// validate checks the config.
func (c StreamConfig) validate() error {
	if c.MeanArrivalGap <= 0 {
		return fmt.Errorf("experiments: MeanArrivalGap must be > 0, got %g", c.MeanArrivalGap)
	}
	if c.SteadyState <= 0 {
		return fmt.Errorf("experiments: SteadyState must be > 0, got %d", c.SteadyState)
	}
	if c.Lifetime == nil {
		return fmt.Errorf("experiments: Lifetime distribution is required")
	}
	if c.Updates < 0 {
		return fmt.Errorf("experiments: Updates must be >= 0, got %d", c.Updates)
	}
	return nil
}

// DefaultLifetime returns the paper's scaling of a lifetime
// distribution: mean = MeanArrivalGap·SteadyState (so with gap 10 and
// h=100, the mean lifetime is 1000 time units). kind is "exp" or
// "zipf".
func DefaultLifetime(kind string, meanArrivalGap float64, steadyState int) (stats.LifetimeDist, error) {
	mean := meanArrivalGap * float64(steadyState)
	switch kind {
	case "exp":
		return stats.NewExponential(mean), nil
	case "zipf":
		return stats.NewZipfLifetimeWithMean(mean), nil
	default:
		return nil, fmt.Errorf("experiments: unknown lifetime kind %q (want exp or zipf)", kind)
	}
}

// entryNames issues the generators' entry names "e1", "e2", ...: unique
// within one stream or trace.
type entryNames int

func (n *entryNames) next() entry.Entry {
	*n++
	return fmt.Sprintf("e%d", int(*n))
}

// Stream is a generated update stream: the initial steady-state
// population to place at time zero, followed by timestamped updates.
type Stream struct {
	Initial []entry.Entry
	Events  []Event
}

// eventHeap orders events by time.
type eventHeap []Event

func (h eventHeap) Len() int            { return len(h) }
func (h eventHeap) Less(i, j int) bool  { return h[i].Time < h[j].Time }
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(Event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}

// Generate builds a stream per Sec. 6.1: the system starts at its
// steady state (SteadyState entries placed at time zero, each with a
// residual lifetime drawn from the lifetime distribution), then add
// events arrive as a Poisson process and each add schedules the
// matching delete at the end of the entry's lifetime. Exactly
// cfg.Updates events are emitted, in time order.
func Generate(rng *stats.RNG, cfg StreamConfig) (Stream, error) {
	if err := cfg.validate(); err != nil {
		return Stream{}, err
	}
	var s Stream
	var h eventHeap
	var names entryNames

	s.Initial = make([]entry.Entry, cfg.SteadyState)
	for i := range s.Initial {
		v := names.next()
		s.Initial[i] = v
		heap.Push(&h, Event{Time: cfg.Lifetime.Sample(rng), Kind: OpDelete, Entry: v})
	}

	arrivals := stats.NewPoissonProcess(cfg.MeanArrivalGap)
	nextAdd := arrivals.NextGap(rng)
	s.Events = make([]Event, 0, cfg.Updates)
	for len(s.Events) < cfg.Updates {
		if h.Len() == 0 || nextAdd < h[0].Time {
			v := names.next()
			ev := Event{Time: nextAdd, Kind: OpAdd, Entry: v}
			s.Events = append(s.Events, ev)
			heap.Push(&h, Event{Time: nextAdd + cfg.Lifetime.Sample(rng), Kind: OpDelete, Entry: v})
			nextAdd += arrivals.NextGap(rng)
			continue
		}
		s.Events = append(s.Events, heap.Pop(&h).(Event))
	}
	return s, nil
}

// ReplayTimed feeds every event to apply in time order. Unless observe
// is nil, it is called once per interval between consecutive events
// (and the interval from time zero to the first event): system state
// is constant on the interval, so a time-weighted steady-state measure
// accumulates duration·indicator there.
func ReplayTimed(events []Event, apply func(Event) error, observe func(from, to float64) error) error {
	prev := 0.0
	for _, ev := range events {
		if observe != nil && ev.Time > prev {
			if err := observe(prev, ev.Time); err != nil {
				return fmt.Errorf("experiments: observe [%.3f,%.3f): %w", prev, ev.Time, err)
			}
		}
		if err := apply(ev); err != nil {
			return fmt.Errorf("experiments: apply %s(%s) at t=%.3f: %w", ev.Kind, ev.Entry, ev.Time, err)
		}
		if ev.Time > prev {
			prev = ev.Time
		}
	}
	return nil
}

// population replays the stream's population arithmetic only (no
// service), returning the entry count after every event — a cheap way
// for tests to verify the generator holds its steady state.
func (s Stream) population() []int {
	count := len(s.Initial)
	out := make([]int, len(s.Events))
	for i, ev := range s.Events {
		switch ev.Kind {
		case OpAdd:
			count++
		case OpDelete:
			count--
		}
		out[i] = count
	}
	return out
}
