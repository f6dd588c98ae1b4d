package sim

// Trace-driven workloads (YCSB-style): a keyspace with Zipf-distributed
// popularity, an initial per-key population, and a mixed stream of
// lookup/add/delete operations. Where the Sec. 6.1 stream exercises one
// key's steady-state churn in depth, a trace exercises breadth — many
// keys, skewed access, the regime the 10k-node scale target cares
// about, where route caches and zone-aware ordering either pay off on
// the hot keys or don't.

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/entry"
	"repro/internal/stats"
)

// OpKind discriminates trace operations.
type OpKind int

// Trace operation kinds.
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

// TraceOp is one operation against one key. Entry is set for add and
// delete ops only.
type TraceOp struct {
	Kind  OpKind
	Key   int // index into the keyspace; key name is "k<Key>"
	Entry entry.Entry
}

// TraceConfig parameterizes a trace.
type TraceConfig struct {
	// Keys is the keyspace size.
	Keys int
	// EntriesPerKey is the initial population placed for every key.
	EntriesPerKey int
	// Ops is the number of operations to generate.
	Ops int
	// ZipfS is the popularity exponent: key rank i is drawn with weight
	// 1/i^s. YCSB's default skew is 0.99; 0 means uniform.
	ZipfS float64
	// LookupFrac is the fraction of ops that are lookups; the remainder
	// splits evenly between adds and deletes (a delete against an empty
	// key becomes an add, so the population never goes negative).
	LookupFrac float64
}

func (c TraceConfig) validate() error {
	if c.Keys <= 0 {
		return fmt.Errorf("sim: trace Keys must be > 0, got %d", c.Keys)
	}
	if c.EntriesPerKey < 0 {
		return fmt.Errorf("sim: trace EntriesPerKey must be >= 0, got %d", c.EntriesPerKey)
	}
	if c.Ops < 0 {
		return fmt.Errorf("sim: trace Ops must be >= 0, got %d", c.Ops)
	}
	if c.ZipfS < 0 {
		return fmt.Errorf("sim: trace ZipfS must be >= 0, got %g", c.ZipfS)
	}
	if c.LookupFrac < 0 || c.LookupFrac > 1 {
		return fmt.Errorf("sim: trace LookupFrac must be in [0,1], got %g", c.LookupFrac)
	}
	return nil
}

// KeyName returns the service key for keyspace index i.
func KeyName(i int) string { return fmt.Sprintf("k%d", i) }

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s, by inversion over a precomputed CDF (O(n) setup,
// O(log n) per draw). Deterministic given the RNG stream.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over n ranks with exponent s.
func NewZipf(n int, s float64) *Zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// Sample draws one rank.
func (z *Zipf) Sample(rng *stats.RNG) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u)
}

// Trace is a generated workload: the initial population of every key
// (placed before the clock starts) and the operation stream.
type Trace struct {
	Initial [][]entry.Entry
	Ops     []TraceOp
}

// GenerateTrace builds a trace. Entry names are globally unique
// ("e<id>") so cross-key collisions cannot mask placement bugs.
// Deletes target a uniformly random live entry of the drawn key;
// the generator tracks the live population so the stream is always
// applicable (no delete of an absent entry).
func GenerateTrace(rng *stats.RNG, cfg TraceConfig) (Trace, error) {
	if err := cfg.validate(); err != nil {
		return Trace{}, err
	}
	var tr Trace
	nextID := 0
	newEntry := func() entry.Entry {
		nextID++
		return fmt.Sprintf("e%d", nextID)
	}

	live := make([][]entry.Entry, cfg.Keys)
	tr.Initial = make([][]entry.Entry, cfg.Keys)
	for k := range tr.Initial {
		tr.Initial[k] = make([]entry.Entry, cfg.EntriesPerKey)
		for i := range tr.Initial[k] {
			tr.Initial[k][i] = newEntry()
		}
		live[k] = slices.Clone(tr.Initial[k])
	}

	zipf := NewZipf(cfg.Keys, cfg.ZipfS)
	tr.Ops = make([]TraceOp, 0, cfg.Ops)
	for len(tr.Ops) < cfg.Ops {
		k := zipf.Sample(rng)
		u := rng.Float64()
		switch {
		case u < cfg.LookupFrac:
			tr.Ops = append(tr.Ops, TraceOp{Kind: OpLookup, Key: k})
		case u < cfg.LookupFrac+(1-cfg.LookupFrac)/2 || len(live[k]) == 0:
			v := newEntry()
			live[k] = append(live[k], v)
			tr.Ops = append(tr.Ops, TraceOp{Kind: OpAdd, Key: k, Entry: v})
		default:
			i := rng.IntN(len(live[k]))
			v := live[k][i]
			live[k][i] = live[k][len(live[k])-1]
			live[k] = live[k][:len(live[k])-1]
			tr.Ops = append(tr.Ops, TraceOp{Kind: OpDelete, Key: k, Entry: v})
		}
	}
	return tr, nil
}
