package transport

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/topo"
	"repro/internal/wire"
)

// ErrInjected identifies failures manufactured by fault injection.
// Every injected failure also matches ErrServerDown (via errors.Is), so
// strategy drivers fail over to the next server in their probe order
// exactly as they would for a genuinely dead server.
var ErrInjected = errors.New("transport: injected fault")

// injectedError is the concrete error for injected failures; it
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

// slot is one server's row of the network: its address, its handler and
// the faults calls to it suffer.
type slot struct {
	addr      string        // what a member's view names the server by
	h         Handler       // what calls are delivered to; nil until bound
	down      bool          // failed: calls return ErrServerDown
	latency   time.Duration // fixed delay added to every call
	jitter    time.Duration // uniform random delay in [0, jitter) on top
	dropRate  float64       // probability a call is dropped before delivery
	slowLeft  int           // remaining slow-start calls
	slowExtra time.Duration // slow-start latency penalty
}

// Chaos is the in-process network. Each server is a slot holding its
// address, the handler a call is delivered to, by direct function call,
// and the faults calls to it suffer: a down flag, per-server latency
// distributions, probabilistic call drops, slow-start penalties after a
// restart, pairwise network partitions, and — when a topo.Topology is
// attached — zone-correlated latency and whole-zone partitions. A wired
// cluster's calls suffer them on their way to real sockets (Over).
//
// All randomness comes from one seeded stats.RNG, so a fault schedule
// is fully reproducible: two Chaos instances with equal seeds over
// equal call sequences inject exactly the same faults. Latency is
// virtual: a call advances the Chaos's Clock instead of sleeping.
//
// Fixed-size clusters never resize it; dynamic membership grows and
// compacts it via Add/Remove. It implements Caller itself for client
// traffic (origin ClientOrigin), by slot. A member's peer traffic goes
// through a view of its own (View, or Over a wired member's client),
// which names servers by address: the caller's and the target's
// addresses pick the slots whose faults apply, whatever the two views'
// numberings are. It is safe for concurrent use, and handlers may issue
// nested calls (broadcasts, migrations) from within Handle: no lock is
// held while a handler runs.
type Chaos struct {
	clock *Clock

	mu    sync.Mutex
	rng   *stats.RNG
	slots []slot
	at    map[string]int  // slot by address
	cut   map[[2]int]bool // severed origin/target pairs, normalized

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

// NewChaos returns a network of n servers at sim://0 … sim://n-1 with
// no handlers bound yet (Bind each before the first call), its faults
// driven by rng. With no faults configured it consumes no randomness,
// so it never perturbs seeded simulations.
func NewChaos(n int, rng *stats.RNG) *Chaos {
	if n <= 0 {
		panic("transport: NewChaos requires n > 0")
	}
	if rng == nil {
		panic("transport: NewChaos requires an RNG")
	}
	c := &Chaos{
		clock:   NewClock(),
		rng:     rng,
		slots:   make([]slot, n),
		cut:     make(map[[2]int]bool),
		zoneCut: make(map[string]bool),
	}
	for i := range c.slots {
		c.slots[i].addr = fmt.Sprintf("sim://%d", i)
	}
	c.index()
	return c
}

// index rebuilds the address lookup. Caller holds c.mu or owns c.
func (c *Chaos) index() {
	c.at = map[string]int{"": ClientOrigin}
	for i, s := range c.slots {
		c.at[s.addr] = i
	}
}

// Bind attaches the handler for one server id.
func (c *Chaos) Bind(server int, h Handler) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots[server].h = h
}

// SetAddr renames one server: views reach it at addr from now on.
func (c *Chaos) SetAddr(server int, addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.at, c.slots[server].addr)
	c.slots[server].addr = addr
	c.at[addr] = server
}

// Add appends a fault-free server slot at addr delivering to h (nil for
// a wired member, which its caller's client reaches) and returns its id
// (dynamic membership: a joiner gets the next slot).
func (c *Chaos) Add(addr string, h Handler) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots = append(c.slots, slot{addr: addr, h: h})
	c.at[addr] = len(c.slots) - 1
	return len(c.slots) - 1
}

// Remove deletes one server slot, shifting higher ids down by one with
// everything their slots hold (dynamic membership: a drained member's
// slot is compacted away). Partitions involving the removed server are
// discarded; surviving pairs are renumbered.
func (c *Chaos) Remove(server int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if server < 0 || server >= len(c.slots) {
		return
	}
	c.slots = slices.Delete(c.slots, server, server+1)
	c.index()
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

// NumServers returns the cluster size.
func (c *Chaos) NumServers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.slots)
}

// Clock returns the virtual clock the injected latency advances.
func (c *Chaos) Clock() *Clock { return c.clock }

// Call delivers msg to slot server as client traffic (origin
// ClientOrigin).
func (c *Chaos) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	return c.call(ctx, "", "", server, msg, nil)
}

// View returns the network as the member at address self sees it: a
// list of member addresses of its own, addrs to begin with, that
// SetAddrs replaces as membership changes commit. A call to server i is
// faulted as one from self's slot to the slot at the list's i-th
// address, and delivered to that slot's handler. The view keeps addrs,
// which views may share: nobody may modify it.
func (c *Chaos) View(self string, addrs []string) *ChaosView {
	v := &ChaosView{chaos: c, self: self}
	v.addrs.Store(&addrs)
	return v
}

// ChaosView is an in-process member's view of the network (see View).
// A call reads the member list without a lock.
type ChaosView struct {
	chaos *Chaos
	self  string
	addrs atomic.Pointer[[]string] // replaced, never modified: views may share one
}

func (v *ChaosView) list() []string { return *v.addrs.Load() }

// NumServers returns the length of the member list.
func (v *ChaosView) NumServers() int { return len(v.list()) }

// Addrs returns a copy of the member list.
func (v *ChaosView) Addrs() []string { return slices.Clone(v.list()) }

// SetAddrs replaces the member list with addrs.
func (v *ChaosView) SetAddrs(addrs []string) {
	addrs = slices.Clone(addrs)
	v.addrs.Store(&addrs)
}

// Pin returns a view of the network from the same member that numbers
// the servers as v's list does now, whatever SetAddrs does to v later.
func (v *ChaosView) Pin() *ChaosView { return v.chaos.View(v.self, v.list()) }

// Clock returns the virtual clock the network's latency advances.
func (v *ChaosView) Clock() *Clock { return v.chaos.clock }

// Close does nothing: a view of the in-process network holds no
// connections.
func (v *ChaosView) Close() error { return nil }

// Call sends msg to the member at the list's server-th address.
func (v *ChaosView) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	addrs := v.list()
	if server < 0 || server >= len(addrs) {
		return nil, fmt.Errorf("transport: server %d out of range [0,%d)", server, len(addrs))
	}
	return v.chaos.call(ctx, v.self, addrs[server], server, msg, nil)
}

// Over returns a Caller whose calls suffer the network's faults as calls
// from the member at address self ("" for a client, ClientOrigin) to the
// one at next's address for the server called, and then go to next: a
// wired member's own client, whose NumServers it reports.
func (c *Chaos) Over(next *Client, self string) Caller {
	return &overCaller{chaos: c, self: self, next: next}
}

type overCaller struct {
	chaos *Chaos
	self  string
	next  *Client
}

func (o *overCaller) NumServers() int { return o.next.NumServers() }

// Clock returns the virtual clock the network's latency advances.
func (o *overCaller) Clock() *Clock { return o.chaos.clock }

func (o *overCaller) Call(ctx context.Context, server int, msg wire.Message) (wire.Message, error) {
	peers := o.next.servers()
	if server < 0 || server >= len(peers) {
		return nil, fmt.Errorf("transport: server %d out of range [0,%d)", server, len(peers))
	}
	return o.chaos.call(ctx, o.self, peers[server].addr, server, msg, o.next)
}

// SetDown marks a server as failed or recovered.
func (c *Chaos) SetDown(server int, down bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if server >= 0 && server < len(c.slots) {
		c.slots[server].down = down
	}
}

// Down reports whether a server is failed.
func (c *Chaos) Down(server int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return server >= 0 && server < len(c.slots) && c.slots[server].down
}

// DownCount returns the number of failed servers.
func (c *Chaos) DownCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for i := range c.slots {
		if c.slots[i].down {
			n++
		}
	}
	return n
}

// SetLatency sets the latency distribution for calls to one server:
// a fixed base plus uniform jitter in [0, jitter).
func (c *Chaos) SetLatency(server int, base, jitter time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots[server].latency = base
	c.slots[server].jitter = jitter
}

// SetDropRate sets the probability that a call to one server is dropped
// before delivery (the server never sees it); dropped calls fail with
// an error matching ErrInjected and ErrServerDown.
func (c *Chaos) SetDropRate(server int, p float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots[server].dropRate = p
}

// SlowStart penalizes the next calls calls to a server with extra
// latency each, modeling a just-restarted server that is slow while it
// warms caches and re-establishes connections.
func (c *Chaos) SlowStart(server, calls int, extra time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.slots[server].slowLeft = calls
	c.slots[server].slowExtra = extra
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

// SetTopology attaches a zone topology: calls then pay the per-tier
// link latency from the topology's profile (on top of any per-server
// faults) and are counted per distance tier. It places the network's
// slots, so it must describe the same servers as the nodes' own
// topologies, for zone partitions and placement to agree on who lives
// where. Pass nil to detach.
func (c *Chaos) SetTopology(tp *topo.Topology) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tp = tp
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

// call applies the faults between the slots at addresses from (""
// for ClientOrigin) and to ("" for slot server), then delivers msg: to
// the slot it resolved when the call drew no delay, otherwise to the
// one at to once the delay is over (see deliver). Errors name the
// server as its caller numbers it. Fault decisions are drawn under the
// lock in call order — the slow-start and drop draws even when the
// server is down — so a single-goroutine simulation is bit-for-bit
// reproducible.
func (c *Chaos) call(ctx context.Context, from, to string, server int, msg wire.Message, next Caller) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	origin, ok := c.at[from] // "" is ClientOrigin's
	target, err := c.slotOf(to, server)
	if err == nil && !ok {
		err = fmt.Errorf("transport: caller %s is not on the network", from)
	}
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	if c.cut[pairKey(origin, target)] {
		c.mu.Unlock()
		return nil, &injectedError{server: server, reason: "partition"}
	}
	if c.tp != nil {
		if z := c.zoneSevered(origin, target); z != "" {
			c.mu.Unlock()
			return nil, &injectedError{server: server, reason: "zone partition " + z}
		}
	}
	s := &c.slots[target]
	delay := s.latency
	if c.tp != nil {
		dist := c.zoneDist(origin, target)
		c.zoneCalls[dist]++
		lp := c.tp.Link(dist)
		delay += lp.Base
		if lp.Jitter > 0 {
			delay += time.Duration(c.rng.Uint64N(uint64(lp.Jitter)))
		}
	}
	if s.jitter > 0 {
		delay += time.Duration(c.rng.Uint64N(uint64(s.jitter)))
	}
	if s.slowLeft > 0 {
		s.slowLeft--
		delay += s.slowExtra
	}
	dropped := s.dropRate > 0 && c.rng.Bool(s.dropRate)
	if delay == 0 && !dropped {
		at := *s
		c.mu.Unlock()
		return at.serve(ctx, server, msg, next)
	}
	c.mu.Unlock()

	if delay > 0 {
		if err := c.clock.Sleep(ctx, delay); err != nil {
			return nil, err
		}
	}
	if dropped {
		return nil, &injectedError{server: server, reason: "drop"}
	}
	return c.deliver(ctx, to, server, msg, next)
}

// deliver serves msg at the slot at address to (slot server when to is
// ""), resolved afresh after a delay, unless the request was abandoned
// meanwhile or the slot is gone.
func (c *Chaos) deliver(ctx context.Context, to string, server int, msg wire.Message, next Caller) (wire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	target, err := c.slotOf(to, server)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	s := c.slots[target]
	c.mu.Unlock()
	return s.serve(ctx, server, msg, next)
}

// serve hands msg to s's handler, or to next when it is set, unless s
// is down or nothing is bound; server is the id the caller named it by.
// The handler runs with no lock held.
func (s *slot) serve(ctx context.Context, server int, msg wire.Message, next Caller) (wire.Message, error) {
	if s.down {
		return nil, fmt.Errorf("%w: server %d", ErrServerDown, server)
	}
	if next != nil {
		return next.Call(ctx, server, msg)
	}
	if s.h == nil {
		return nil, fmt.Errorf("transport: server %d has no handler bound", server)
	}
	return s.h.Handle(ctx, msg), nil
}

// slotOf returns the slot at address addr, or slot server when addr is
// "". Caller holds c.mu.
func (c *Chaos) slotOf(addr string, server int) (int, error) {
	if addr != "" {
		if i, ok := c.at[addr]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("%w: no server at %s", ErrServerDown, addr)
	}
	if server < 0 || server >= len(c.slots) {
		return 0, fmt.Errorf("transport: server %d out of range [0,%d)", server, len(c.slots))
	}
	return server, nil
}
