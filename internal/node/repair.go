package node

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/entry"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// Anti-entropy repair. Once a server dies permanently, the entries it
// held are simply gone: the selector routes around the corpse but
// nothing restores the placement scheme's replication invariant, so
// achieved-t decays under sustained churn. The Repairer is a per-node
// background sweeper that walks the store's copy-on-write snapshots,
// plans which peers must hold which of its local entries (per scheme;
// see executor.plan), and re-replicates what is missing — the
// Round-y hole-plugging idea generalized to every strategy.
//
// Two disciplines keep repair invisible when it is not needed:
//
//   - The RNG is never consulted. Plans transfer existing entries at
//     their existing positions; receivers apply deterministic
//     acceptance rules (fill to x, legal home checks). A sweep
//     therefore leaves every node's seeded RNG stream exactly where
//     the workload put it, and golden seeds stay valid with repair
//     enabled.
//   - Sweeps are epoch-gated on the health source: a sweep runs only
//     when the failure epoch advanced since the last completed sweep,
//     so a cluster that has seen no (new) failures pays zero wire
//     traffic for having repair on.
//
// Acceptance runs through the same logAdd/logAddAt helpers as the
// update protocols, so repaired state is WAL-logged and crash recovery
// stays byte-identical.

// RepairHealth tells the repair daemon which servers to presume dead
// and when the failure picture last changed. *selector.Selector
// satisfies it (open circuits, monotone failure counter), as does
// cluster.Health for simulations.
type RepairHealth interface {
	// PresumedDead reports, per server, whether repair should treat it
	// as unreachable: neither queried nor pushed to.
	PresumedDead() []bool
	// FailureEpoch is a monotone counter that advances whenever a new
	// failure (or failure-state transition) is observed. Sweeps are
	// skipped while it matches the epoch of the last completed sweep.
	FailureEpoch() uint64
}

// RepairOptions configures a Repairer.
type RepairOptions struct {
	// Interval between background sweeps (Start); default 30s.
	Interval time.Duration
	// Health classifies peers and gates sweeps. Required.
	Health RepairHealth
	// Metrics, when set, records sweep outcomes.
	Metrics *telemetry.RepairMetrics
}

// SweepStats summarizes one sweep: a repair sweep's (SweepOnce) or a
// rebalance's (LastRebalance).
type SweepStats struct {
	// Skipped reports that a repair sweep's epoch gate short-circuited
	// it before any wire traffic.
	Skipped bool
	// Epoch is the membership epoch a rebalance committed; 0 for repair.
	Epoch uint64
	// Keys is the number of keys examined; MovedKeys counts keys for
	// which at least one entry moved or was released.
	Keys      int
	MovedKeys int
	// Queries and Pushes count answered sweep messages; Unanswered
	// counts the messages that got no answer at all.
	Queries    int
	Pushes     int
	Unanswered int
	// Moved counts entries accepted by receivers; UnderReplicated
	// counts (entry, server) pairs the plan required but that were
	// missing before this sweep pushed them.
	Moved           int
	UnderReplicated int
	// Dropped counts local copies a rebalance released, always after a
	// surviving copy was confirmed (seen on a target, or accepted by
	// one). A repair sweep releases nothing.
	Dropped int
}

// Repairer runs anti-entropy sweeps for one node.
type Repairer struct {
	n   *Node
	opt RepairOptions

	mu         sync.Mutex // serializes sweeps; guards sweptEpoch
	sweptEpoch uint64

	stop chan struct{}
	done chan struct{}
}

// NewRepairer returns a repairer for n. It does not start sweeping;
// call Start for the background loop or SweepOnce directly.
func NewRepairer(n *Node, opt RepairOptions) *Repairer {
	if opt.Health == nil {
		panic("node: NewRepairer requires a RepairHealth source")
	}
	if opt.Interval <= 0 {
		opt.Interval = 30 * time.Second
	}
	if opt.Metrics == nil {
		opt.Metrics = &telemetry.RepairMetrics{}
	}
	return &Repairer{n: n, opt: opt}
}

// Start launches the background sweep loop. Stop terminates it.
func (r *Repairer) Start() {
	if r.stop != nil {
		return
	}
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go func() {
		defer close(r.done)
		t := time.NewTicker(r.opt.Interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.SweepOnce(context.Background())
			}
		}
	}()
}

// Stop terminates the background loop and waits for an in-flight sweep
// to finish. It is a no-op if Start was never called.
func (r *Repairer) Stop() {
	if r.stop == nil {
		return
	}
	close(r.stop)
	<-r.done
	r.stop = nil
	r.done = nil
}

// SweepOnce runs one repair sweep (see sweep) unless the epoch gate
// skips it, and returns what happened; tests and the churn benchmark
// drive repair through it directly.
func (r *Repairer) SweepOnce(ctx context.Context) SweepStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.opt.Metrics
	m.Sweeps.Inc()
	epoch := r.opt.Health.FailureEpoch()
	if epoch == r.sweptEpoch {
		m.SweepsSkipped.Inc()
		return SweepStats{Skipped: true}
	}
	stats := r.n.sweep(ctx, nil, r.n.cur.Load(), r.opt.Health.PresumedDead())
	// Converged at this epoch, unless a message went unanswered (the
	// epoch need not move again when a partition heals or a drop
	// passes): until the health picture changes, further sweeps are free.
	if stats.Unanswered == 0 {
		r.sweptEpoch = epoch
	}
	m.KeysRepaired.Add(int64(stats.MovedKeys))
	m.EntriesMoved.Add(int64(stats.Moved))
	m.Queries.Add(int64(stats.Queries))
	m.Pushes.Add(int64(stats.Pushes))
	m.UnderReplicated.Set(int64(stats.UnderReplicated))
	return stats
}

// sweep is the one maintenance pass of repair and rebalance: every key
// in sorted order (the store's Range order is unspecified, and
// deterministic sweeps are what make the churn soak tests
// reproducible), each run through sweepKey. t is the committed
// transition a rebalance carries, nil for a repair sweep; via is the
// view whose caller the sweep addresses peers through; dead marks the
// ranks a repair sweep presumes dead.
func (n *Node) sweep(ctx context.Context, t *transition, via *view, dead []bool) SweepStats {
	type keyRef struct {
		key string
		ks  *store.KeyState
	}
	var keys []keyRef
	n.store.Range(func(key string, ks *store.KeyState) bool {
		keys = append(keys, keyRef{key, ks})
		return true
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i].key < keys[j].key })
	var stats SweepStats
	if t != nil {
		stats.Epoch = t.update.Epoch
	}
	for _, k := range keys {
		stats.Keys++
		req{n, via}.sweepKey(ctx, k.key, k.ks, t, dead, &stats)
	}
	return stats
}

// sweepKey is the sweep's step for one key: copy it (viewKey), plan it
// under a member view, push what targets miss (transferKey), then
// release the copies the plan no longer assigns here whose survivor was
// confirmed, but only when the sweep carries a transition. A repair
// sweep plans under the request's view with presumed-dead targets
// skipped: it restores missing copies, it never releases one. A
// rebalance plans under t's post-change view and addresses each rank
// at its address's slot in the request's view. Unconfirmed entries
// stay put: on a drain they ride out in the leaver's final checkpoint
// (the operator's escrow) rather than be destroyed; a sole
// RandomServer-x copy on a leaver whose peers are all at capacity is
// the concrete case.
func (r req) sweepKey(ctx context.Context, key string, ks *store.KeyState, t *transition, dead []bool, stats *SweepStats) {
	mv, slotOf := r.v.rule(), func(rank int) int {
		if rank < len(dead) && dead[rank] {
			return -1
		}
		return rank
	}
	push := wire.RepairPush{Key: key}
	var confirmed map[string]bool
	if t != nil {
		mv = t.to.rule()
		slotOf = func(rank int) int { return slices.Index(r.v.Addrs, t.to.Addrs[rank]) }
		push.Epoch, push.NewN, push.Leaving = t.update.Epoch, mv.n, t.update.Leaving
		confirmed = make(map[string]bool)
	}
	v := viewKey(key, ks)
	plan, drops := execFor(v.cfg.Scheme).plan(v, mv)
	push.Config, push.HCount = v.cfg, v.hCount
	before := stats.Moved
	r.transferKey(ctx, v, plan, mv, slotOf, push, confirmed, stats)
	moved := stats.Moved > before

	if len(drops) > 0 && len(confirmed) > 0 {
		dropped := 0
		ks.Update(func(st *store.State) {
			for _, s := range drops {
				if confirmed[s] && logRemove(st, s) {
					dropped++
				}
			}
		})
		if dropped > 0 && r.store.WaitDurable() == nil {
			stats.Dropped += dropped
			moved = true
		}
	}
	if moved {
		stats.MovedKeys++
	}
}

// repairView is a copy of one key's local state, taken under the key
// lock and then planned against with no lock held.
type repairView struct {
	key       string
	cfg       wire.Config
	entries   []string       // local set, internal order
	positions map[string]int // Round-y positions
	hCount    int            // RandomServer-x system size
}

// repairCandidate is one peer's share of a key's repair plan: the
// entries the scheme says the target should hold (with their Round-y
// positions when hasPos), and whether acceptance is capped at the
// receiver's x (subset schemes).
type repairCandidate struct {
	target    int
	entries   []string
	positions []uint64
	hasPos    bool
	fillToX   bool
}

// viewKey snapshots one key's state for planning.
func viewKey(key string, ks *store.KeyState) repairView {
	v := repairView{key: key}
	ks.View(func(st *store.State) {
		v.cfg = st.Cfg
		v.entries = st.Set.Members()
		switch ext := st.Ext.(type) {
		case *roundExt:
			v.positions = maps.Clone(ext.positions)
		case *rsExt:
			v.hCount = ext.hCount
		}
	})
	return v
}

// everyPeerPlan is the plan of the schemes where any server is a legal
// home (Full unconditionally; Fixed-x and RandomServer-x capped at x
// via fillToX): the whole local set is offered to every other member,
// and nothing is ever dropped except by a leaver, which has no place in
// the view at all.
func everyPeerPlan(v repairView, mv memberView, fillToX bool) (push []repairCandidate, drop []string) {
	if mv.self < 0 {
		drop = v.entries
	}
	if len(v.entries) == 0 || mv.n <= 1 {
		return nil, drop
	}
	push = make([]repairCandidate, 0, mv.n-1)
	for t := 0; t < mv.n; t++ {
		if t != mv.self {
			push = append(push, repairCandidate{target: t, entries: v.entries, fillToX: fillToX})
		}
	}
	return push, drop
}

// perEntryHomeCandidates is the plan of the schemes with deterministic
// per-entry homes (Round-y windows, Hash-y/MultiProbe-y assignments):
// entries are grouped by their homes under mv, excluding self, and an
// entry whose homes do not include self is a drop. Entries homes cannot
// place (ok false) are neither offered nor dropped. Targets come out in
// ascending rank order and entries in local set order, so plans are
// deterministic.
func perEntryHomeCandidates(entries []string, mv memberView, hasPos bool,
	homes func(s string) (targets []int, pos int, ok bool)) (push []repairCandidate, drop []string) {
	byTarget := make(map[int]*repairCandidate)
	for _, s := range entries {
		targets, pos, ok := homes(s)
		if !ok {
			continue
		}
		if !containsServer(targets, mv.self) {
			drop = append(drop, s)
		}
		for _, t := range targets {
			if t == mv.self || t < 0 || t >= mv.n {
				continue
			}
			c := byTarget[t]
			if c == nil {
				c = &repairCandidate{target: t, hasPos: hasPos}
				byTarget[t] = c
			}
			c.entries = append(c.entries, s)
			if hasPos {
				c.positions = append(c.positions, uint64(pos))
			}
		}
	}
	order := make([]int, 0, len(byTarget))
	for t := range byTarget {
		order = append(order, t)
	}
	sort.Ints(order)
	push = make([]repairCandidate, 0, len(order))
	for _, t := range order {
		push = append(push, *byTarget[t])
	}
	return push, drop
}

// acceptMissing is the skeleton of every acceptance rule: walk the
// pushed entries, skip invalid ones and ones already held, and store
// the rest — stopping at the key's x when capX (subset schemes), and
// through admit when the scheme vets or positions each entry (nil
// stores unconditionally). It returns how many entries were stored.
// Stores go through logAdd/logAddAt, so accepted entries are WAL-logged
// like any other mutation.
func acceptMissing(st *store.State, entries []string, capX bool, admit func(i int, v entry.Entry) bool) int {
	accepted := 0
	for i, v := range entries {
		if capX && st.Set.Len() >= st.Cfg.X {
			break
		}
		if !entry.Valid(v) || st.Set.Contains(v) {
			continue
		}
		if admit != nil {
			if admit(i, v) {
				accepted++
			}
		} else if logAdd(st, v) {
			accepted++
		}
	}
	return accepted
}

// transferKey runs the sweep's two-phase exchange for one key: query
// each planned target for what it is missing, push only that (subset
// schemes only top the receiver up to x). Targets are ranks under mv;
// slotOf maps one to the slot to call in the request's view, or -1 to
// skip it (presumed dead). push is the sweep's message with its key,
// config, HCount and transition set; each target gets a copy carrying
// the entries it is missing. When confirmed is non-nil it collects the
// entries known to have a copy on some target: seen there by the
// query, or part of a push accepted in full (partial acceptance
// doesn't say which ones landed, so none are marked). It tallies into
// stats.
func (r req) transferKey(ctx context.Context, v repairView, plan []repairCandidate, mv memberView,
	slotOf func(rank int) int, push wire.RepairPush, confirmed map[string]bool, stats *SweepStats) {
	for _, cand := range plan {
		if cand.target < 0 || cand.target >= mv.n || cand.target == mv.self {
			continue
		}
		slot := slotOf(cand.target)
		if slot < 0 {
			continue
		}
		reply, err := r.callReply(ctx, slot, wire.RepairQuery{Key: v.key, Entries: cand.entries})
		if err != nil {
			stats.Unanswered++ // unreachable now; a later sweep retries
			continue
		}
		qr, ok := reply.(wire.RepairQueryReply)
		if !ok || qr.Err != "" || len(qr.Missing) != len(cand.entries) {
			continue
		}
		stats.Queries++
		budget := -1 // deterministic homes push every missing entry
		if cand.fillToX {
			budget = max(v.cfg.X-qr.Len, 0)
		}
		p := push
		p.HasPos = cand.hasPos
		for i, missing := range qr.Missing {
			if !missing {
				if confirmed != nil {
					confirmed[cand.entries[i]] = true
				}
				continue
			}
			if budget == 0 {
				continue
			}
			p.Entries = append(p.Entries, cand.entries[i])
			if cand.hasPos {
				p.Positions = append(p.Positions, cand.positions[i])
			}
			if budget > 0 {
				budget--
			}
		}
		if len(p.Entries) == 0 {
			continue
		}
		stats.UnderReplicated += len(p.Entries)
		preply, err := r.callReply(ctx, slot, p)
		if err != nil {
			stats.Unanswered++
			continue
		}
		pr, ok := preply.(wire.RepairPushReply)
		if !ok || pr.Err != "" {
			continue
		}
		stats.Pushes++
		stats.Moved += pr.Accepted
		if confirmed != nil && pr.Accepted == len(p.Entries) {
			for _, s := range p.Entries {
				confirmed[s] = true
			}
		}
	}
}

// acceptPush applies phase two of a sweep under the key's stored
// scheme (the receiver's config wins, as everywhere else): each entry
// passes the scheme's acceptance rule evaluated at mv or is dropped.
// Accepted entries are WAL-logged through the same helpers as the
// update protocols, and Handle's wait covers them before the reply.
// what names the sweep in error replies.
func (n *Node) acceptPush(what string, m wire.RepairPush, mv memberView) wire.Message {
	if m.HasPos && len(m.Positions) != len(m.Entries) {
		return wire.RepairPushReply{Err: "node: " + what + " push positions/entries length mismatch"}
	}
	if _, ok := n.store.Get(m.Key); !ok {
		// A push may only create key state under a config that would
		// have been accepted at Place time in the cluster mv describes;
		// a corrupt or hostile config must not poison the store.
		if err := m.Config.Validate(mv.n); err != nil {
			return wire.RepairPushReply{Err: "node: " + what + " push: " + err.Error()}
		}
	}
	accepted := 0
	n.store.GetOrCreate(m.Key, m.Config).Update(func(st *store.State) {
		accepted = execFor(st.Cfg.Scheme).accept(st, m, mv)
	})
	return wire.RepairPushReply{Accepted: accepted}
}

// handleRepairQuery answers phase one of a sweep: which of the listed
// candidates this server is missing, plus its local set size and
// RandomServer system count (so the sweeper can cap fill-to-x pushes),
// and the span of Round-y positions it holds (so a sequencer can
// rebuild lost counters).
func (n *Node) handleRepairQuery(m wire.RepairQuery) wire.Message {
	reply := wire.RepairQueryReply{Missing: make([]bool, len(m.Entries))}
	ks, ok := n.store.Get(m.Key)
	if !ok {
		for i := range reply.Missing {
			reply.Missing[i] = true
		}
		return reply
	}
	ks.View(func(st *store.State) {
		for i, s := range m.Entries {
			reply.Missing[i] = !st.Set.Contains(s)
		}
		reply.Len = st.Set.Len()
		switch ext := st.Ext.(type) {
		case *rsExt:
			reply.HCount = ext.hCount
		case *roundExt:
			reply.LowPos, reply.EndPos = ext.span()
		}
	})
	return reply
}

// handleRepairPush applies one sweep's push. A repair push (NewN == 0)
// is accepted under the request's view, a rebalance push under the
// post-change view of the transition it names, derived by one rule. A
// push naming this member's committed epoch is judged under that
// transition's post-change view. A push naming a later epoch comes from
// a member that committed first: its NewN and Leaving apply to this
// member's view, as its own commit will apply them — the rank is its
// address's index once the leaver is dropped. Pushes from an epoch this
// member has superseded are refused, and so are ones that leave it no
// rank or claim more than one new member (no change this member can be
// part of).
func (r req) handleRepairPush(m wire.RepairPush) wire.Message {
	if m.NewN == 0 {
		return r.acceptPush("repair", m, r.v.rule())
	}
	addrs := r.v.Addrs
	if l := m.Leaving; l >= 0 && l < len(addrs) {
		addrs = slices.Delete(slices.Clone(addrs), l, l+1)
	}
	mv := memberView{self: r.v.rankIn(addrs), n: m.NewN, tp: r.v.Topology.Resize(m.NewN, m.Leaving)}
	if cur := r.applied.Load(); cur != nil && m.Epoch <= cur.update.Epoch {
		if m.Epoch < cur.update.Epoch {
			return wire.RepairPushReply{Err: fmt.Sprintf("node: stale rebalance push (epoch %d < %d)", m.Epoch, cur.update.Epoch)}
		}
		mv = cur.to.rule()
	}
	switch {
	case mv.self < 0:
		return wire.RepairPushReply{Err: "node: rebalance push addressed to the leaver"}
	case mv.self >= mv.n || mv.n > len(r.v.Addrs)+1:
		return wire.RepairPushReply{Err: fmt.Sprintf("node: rebalance push outside membership (rank %d of %d)", mv.self, mv.n)}
	}
	return r.acceptPush("rebalance", m, mv)
}
