// Chaos is a fault-injecting middleware over any Caller. It sits
// between the strategy drivers (or server nodes issuing peer traffic)
// and the real transport, so the same fault scenarios run unchanged
// over the in-process simulator and the TCP client: per-server latency
// distributions, probabilistic call drops, slow-start penalties after a
// restart, pairwise network partitions, and — when a topo.Topology is
// attached — zone-correlated latency and whole-zone partitions.
//
// All randomness comes from one seeded stats.RNG, so a fault schedule
// is fully reproducible: two Chaos instances with equal seeds over
// equal call sequences inject exactly the same faults. Latency is
// virtual: a call advances the Chaos's Clock instead of sleeping.
package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/wire"
)

// ErrInjected identifies failures manufactured by the chaos middleware.
// Every injected failure also matches ErrServerDown (via errors.Is), so
// strategy drivers fail over to the next server in their probe order
// exactly as they would for a genuinely dead server.
var ErrInjected = errors.New("transport: injected fault")

// injectedError is the concrete error for chaos-injected failures; it
// matches both ErrInjected and ErrServerDown.
type injectedError struct {
	server int
	reason string
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("transport: injected %s: server %d", e.reason, e.server)
}

func (e *injectedError) Is(target error) bool {
	return target == ErrInjected || target == ErrServerDown
}

// ClientOrigin is the origin id for calls issued by clients (strategy
// drivers) rather than by a server node. Partitions involving
// ClientOrigin cut the client off from a server.
const ClientOrigin = -1

// Faults is the fault profile applied to calls targeting one server.
// The zero value injects nothing.
type Faults struct {
	// Latency is a fixed delay added to every call.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// DropRate is the probability a call is dropped before delivery
	// (the server never sees it); dropped calls fail with an error
	// matching ErrInjected and ErrServerDown.
	DropRate float64
}

// Chaos wraps an inner Caller with deterministic fault injection.
// It implements Caller itself for client traffic (origin ClientOrigin);
// use Origin to obtain per-server views for peer traffic so pairwise
// partitions can tell callers apart.
type Chaos struct {
	inner Caller
	clock *Clock

	mu        sync.Mutex
	rng       *stats.RNG
	faults    []Faults
	slowLeft  []int           // remaining slow-start calls per server
	slowExtra []time.Duration // slow-start latency penalty per server
	cut       map[[2]int]bool // severed origin/target pairs, normalized

	// Zone state. With tp nil all of it is inert: no extra locking of
	// note, no RNG draws, no counters — topology-free runs stay
	// byte-identical. With tp set but a zero latency profile, calls are
	// counted per distance tier (the ext-zone hop gauges) and zone
	// partitions apply, but no delay is injected and no randomness is
	// consumed.
	tp         *topo.Topology
	clientZone string          // zone path of ClientOrigin traffic; "" = off-net
	zoneCut    map[string]bool // partitioned zone paths
	zoneCalls  [topo.NumDistances]uint64
}

var _ Caller = (*Chaos)(nil)

// NewChaos wraps inner with fault injection driven by rng. With no
// faults configured it is a transparent pass-through that consumes no
// randomness, so wrapping never perturbs seeded simulations.
func NewChaos(inner Caller, rng *stats.RNG) *Chaos {
	if inner == nil {
		panic("transport: NewChaos requires an inner Caller")
	}
	if rng == nil {
		panic("transport: NewChaos requires an RNG")
	}
	return &Chaos{
		inner:     inner,
		clock:     NewClock(),
		rng:       rng,
		faults:    make([]Faults, inner.NumServers()),
		slowLeft:  make([]int, inner.NumServers()),
		slowExtra: make([]time.Duration, inner.NumServers()),
		cut:       make(map[[2]int]bool),
		zoneCut:   make(map[string]bool),
	}
}

// NumServers returns the inner transport's cluster size.
func (c *Chaos) NumServers() int { return c.inner.NumServers() }

// Clock returns the virtual clock the injected latency advances.
func (c *Chaos) Clock() *Clock { return c.clock }

// Call delivers msg as client traffic (origin ClientOrigin).
func (c *Chaos) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	return c.call(ctx, ClientOrigin, server, msg)
}

// Origin returns a Caller view whose calls carry the given origin id,
// for binding to server nodes: peer traffic from server i then respects
// partitions between i and its targets.
func (c *Chaos) Origin(id int) Caller { return &originCaller{chaos: c, origin: id} }

type originCaller struct {
	chaos  *Chaos
	origin int
}

func (o *originCaller) NumServers() int { return o.chaos.NumServers() }

func (o *originCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	return o.chaos.call(ctx, o.origin, server, msg)
}

// SetLatency sets the latency distribution for calls to one server:
// a fixed base plus uniform jitter in [0, jitter).
func (c *Chaos) SetLatency(server int, base, jitter time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faults[server].Latency = base
	c.faults[server].Jitter = jitter
}

// SetDropRate sets the probability that a call to one server is dropped
// before delivery.
func (c *Chaos) SetDropRate(server int, p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.faults[server].DropRate = p
}

// SlowStart penalizes the next calls calls to a server with extra
// latency each, modeling a just-restarted server that is slow while it
// warms caches and re-establishes connections.
func (c *Chaos) SlowStart(server, calls int, extra time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slowLeft[server] = calls
	c.slowExtra[server] = extra
}

// Partition severs the pair (a, b) in both directions; calls between
// them fail with an error matching ErrInjected and ErrServerDown.
// Either id may be ClientOrigin to cut the client off from a server.
func (c *Chaos) Partition(a, b int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cut[pairKey(a, b)] = true
}

// Heal removes the partition between a and b.
func (c *Chaos) Heal(a, b int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.cut, pairKey(a, b))
}

// HealAll removes every partition.
func (c *Chaos) HealAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cut = make(map[[2]int]bool)
}

// Partitioned reports whether the pair (a, b) is severed.
func (c *Chaos) Partitioned(a, b int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cut[pairKey(a, b)]
}

// Grow extends the fault tables by k fault-free slots (dynamic
// membership: joiners start with no injected faults). Without this,
// calls to slots beyond the tables bypass injection entirely.
func (c *Chaos) Grow(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := 0; i < k; i++ {
		c.faults = append(c.faults, Faults{})
		c.slowLeft = append(c.slowLeft, 0)
		c.slowExtra = append(c.slowExtra, 0)
	}
}

// Compact removes one server's fault state, shifting higher ids down
// by one to match the inner transport's slot compaction after a drain.
// Partitions involving the removed server are discarded; surviving
// pairs are renumbered.
func (c *Chaos) Compact(server int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if server < 0 || server >= len(c.faults) {
		return
	}
	c.faults = append(c.faults[:server], c.faults[server+1:]...)
	c.slowLeft = append(c.slowLeft[:server], c.slowLeft[server+1:]...)
	c.slowExtra = append(c.slowExtra[:server], c.slowExtra[server+1:]...)
	cut := make(map[[2]int]bool, len(c.cut))
	shift := func(id int) (int, bool) {
		switch {
		case id == server:
			return 0, false
		case id > server:
			return id - 1, true
		default:
			return id, true // ClientOrigin stays ClientOrigin
		}
	}
	for pair := range c.cut {
		a, okA := shift(pair[0])
		b, okB := shift(pair[1])
		if okA && okB {
			cut[pairKey(a, b)] = true
		}
	}
	c.cut = cut
}

// SetTopology attaches a zone topology: calls then pay the per-tier
// link latency from the topology's profile (on top of any per-server
// Faults) and are counted per distance tier. The topology must be the
// same instance the cluster's nodes share, so zone partitions and
// placement agree on who lives where. Pass nil to detach.
func (c *Chaos) SetTopology(tp *topo.Topology) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tp = tp
}

// Topology returns the attached topology, or nil.
func (c *Chaos) Topology() *topo.Topology {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tp
}

// SetClientZone places ClientOrigin traffic inside a zone (a region,
// DC, or rack path), so client calls pay the right link tier and are
// severed by partitions of that zone. An empty path (the default)
// models an off-net client: maximally distant from every server and
// outside every zone, so whole-zone partitions never cut it off.
func (c *Chaos) SetClientZone(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clientZone = path
}

// PartitionZone severs a whole zone (a rack path or any prefix of
// one) from the rest of the network: calls crossing the zone boundary
// in either direction fail with an error matching ErrInjected and
// ErrServerDown, while traffic wholly inside or wholly outside the
// zone still flows. Requires an attached topology to have any effect.
func (c *Chaos) PartitionZone(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.zoneCut[path] = true
}

// HealZone removes a whole-zone partition.
func (c *Chaos) HealZone(path string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.zoneCut, path)
}

// ZonePartitioned reports whether a zone is currently severed.
func (c *Chaos) ZonePartitioned(path string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.zoneCut[path]
}

// ZoneCalls returns a snapshot of delivered-call-attempt counts per
// distance tier (indexed by topo.DistSameRack..DistCrossRegion).
// Counting happens only while a topology is attached; partitioned
// calls are not counted (they never traverse a link).
func (c *Chaos) ZoneCalls() [topo.NumDistances]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.zoneCalls
}

// ResetZoneCalls zeroes the per-tier call counters.
func (c *Chaos) ResetZoneCalls() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.zoneCalls = [topo.NumDistances]uint64{}
}

// originInZone reports whether an origin lies inside a zone: servers
// by topology assignment, ClientOrigin by the configured client zone
// path. Caller holds c.mu.
func (c *Chaos) originInZone(origin int, z string) bool {
	if origin == ClientOrigin {
		return c.clientZone != "" && topo.Within(c.clientZone, z)
	}
	return c.tp.InZone(origin, z)
}

// zoneSevered returns the (lexically smallest, for deterministic
// error text) partitioned zone whose boundary the call crosses, or
// "". Caller holds c.mu and has checked c.tp != nil.
func (c *Chaos) zoneSevered(origin, server int) string {
	hit := ""
	for z := range c.zoneCut {
		if c.originInZone(origin, z) != c.tp.InZone(server, z) {
			if hit == "" || z < hit {
				hit = z
			}
		}
	}
	return hit
}

// zoneDist returns the distance tier the call traverses. Caller holds
// c.mu and has checked c.tp != nil.
func (c *Chaos) zoneDist(origin, server int) int {
	if origin == ClientOrigin {
		if c.clientZone == "" {
			return topo.DistCrossRegion
		}
		return c.tp.DistZone(c.clientZone, server)
	}
	return c.tp.Dist(origin, server)
}

func pairKey(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// call applies the configured faults, then delegates to the inner
// transport. Fault decisions are drawn under the lock in call order, so
// a single-goroutine simulation is bit-for-bit reproducible.
func (c *Chaos) call(ctx context.Context, origin, server int, msg wire.Message) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if server < 0 || server >= len(c.faults) {
		return c.inner.Call(ctx, server, msg) // inner reports the range error
	}

	c.mu.Lock()
	if c.cut[pairKey(origin, server)] {
		c.mu.Unlock()
		return nil, &injectedError{server: server, reason: "partition"}
	}
	if c.tp != nil {
		if z := c.zoneSevered(origin, server); z != "" {
			c.mu.Unlock()
			return nil, &injectedError{server: server, reason: "zone partition " + z}
		}
	}
	f := c.faults[server]
	delay := f.Latency
	if c.tp != nil {
		dist := c.zoneDist(origin, server)
		c.zoneCalls[dist]++
		lp := c.tp.Link(dist)
		delay += lp.Base
		if lp.Jitter > 0 {
			delay += time.Duration(c.rng.Uint64N(uint64(lp.Jitter)))
		}
	}
	if f.Jitter > 0 {
		delay += time.Duration(c.rng.Uint64N(uint64(f.Jitter)))
	}
	if c.slowLeft[server] > 0 {
		c.slowLeft[server]--
		delay += c.slowExtra[server]
	}
	dropped := f.DropRate > 0 && c.rng.Bool(f.DropRate)
	c.mu.Unlock()

	if delay > 0 {
		if err := c.clock.Sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
	if dropped {
		return nil, &injectedError{server: server, reason: "drop"}
	}
	return c.inner.Call(ctx, server, msg)
}
