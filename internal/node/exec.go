package node

import (
	"context"
	"slices"

	"repro/internal/store"
	"repro/internal/topo"
	"repro/internal/transport"
	"repro/internal/wire"
)

// executor is the server-side protocol of one placement strategy: each
// Sec. 5 subsection of the paper becomes one implementation in its own
// exec_*.go file. The Node shell dispatches to an executor after
// resolving the key's stored config, so a client with a stale config
// cannot fork a key's strategy.
//
// Each scheme states its placement rule — who is a legal home for an
// entry — once, as a function of a memberView. The update protocols
// (place/add/del) evaluate it under the request's view; plan and
// accept evaluate it under whichever view the caller hands them, which
// is all that distinguishes an anti-entropy repair sweep (the current
// membership) from a join/drain rebalance (the post-change one).
//
// add and del run the initial server S's role and may call peers; they
// are invoked with no key lock held. place only decides — the shell
// sends (see Node.place). storeBatch, storeOne,
// removeOne and accept run inside a store.KeyState.Update callback
// (key locked) and must not call peers — removeOne instead returns a
// follow-up to run after the lock is released (the RandomServer
// replacement search).
type executor interface {
	// place says how place(k, {v1..vh}) reaches the cluster: always as
	// one StoreBatch, whose receivers select (storeBatch).
	place(r req, m wire.Place) (placePlan, error)
	// add runs the initial server's add(v) protocol for the key.
	add(ctx context.Context, r req, ks *store.KeyState, cfg wire.Config, m wire.Add) wire.Message
	// del runs the initial server's delete(v) protocol for the key.
	del(ctx context.Context, r req, ks *store.KeyState, cfg wire.Config, m wire.Delete) wire.Message
	// storeBatch builds a place's local selection into st, an empty
	// state that logs nothing, which handleStoreBatch then installs.
	storeBatch(r req, st *store.State, entries []string)
	// storeOne applies a single-entry store's local rule.
	storeOne(r req, st *store.State, m wire.StoreOne)
	// removeOne deletes a local copy; a non-nil return value is invoked
	// by the caller once the key lock is released.
	removeOne(ctx context.Context, r req, st *store.State, m wire.RemoveOne) func()

	// plan evaluates the placement rule over this node's local copy of
	// a key under mv. push is what the rule says peers must hold:
	// for schemes with deterministic homes (Round-y, Hash-y,
	// MultiProbe-y, KeyPartition) each entry's other homes, for
	// schemes where any server is a legal home (Full, Fixed-x,
	// RandomServer-x) every peer, capped at x for the subset schemes.
	// Targets are ranks under mv. drop lists the local entries for
	// which this server is not a legal home under mv (every entry
	// when mv.self < 0, the leaver); a sweep releases them once a
	// surviving copy is confirmed, and only when it carries a
	// transition (a rebalance), never on repair. plan runs with no key
	// lock held, on a view copied out of the store, and must not
	// consume RNG — sweeps move existing entries at existing
	// positions, they never redraw, which is what keeps seeded lookups
	// byte-identical across churn.
	plan(v repairView, mv memberView) (push []repairCandidate, drop []string)

	// accept applies a push's entries under the scheme's rule
	// evaluated at mv (cap at x, legal Round/Hash home, partition
	// ownership) and returns how many entries it stored. It must not
	// consume RNG.
	accept(st *store.State, p wire.RepairPush, mv memberView) int
}

// placePlan is an executor's answer to one place: share goes to server
// target, or to every server, and once those have acked the shell runs
// after, if there is one.
type placePlan struct {
	share  wire.StoreBatch
	target int // a server id, or everyServer
	after  func()
}

const everyServer = -1

// memberView is the membership a placement rule is evaluated against.
type memberView struct {
	self int            // this server's rank among the members; -1 for a leaver
	n    int            // member count
	tp   *topo.Topology // zone topology for spread-mode homes; nil without one
}

// View is a node's committed picture of the cluster, one immutable
// value that a committed MembershipUpdate replaces (next).
type View struct {
	Epoch    uint64         // the membership epoch that produced it
	Addrs    []string       // the members' addresses, in rank order
	Self     int            // the index of its own address in Addrs; -1 once drained
	Topology *topo.Topology // fitted to Addrs; nil without one
}

// view is a View as the node publishes it: with the caller that reaches
// Addrs by rank, numbered so for as long as anyone holds it.
type view struct {
	View
	peers transport.Caller
}

// rule is the membership the placement rules see in v.
func (v *view) rule() memberView {
	return memberView{self: v.Self, n: len(v.Addrs), tp: v.Topology}
}

// rankIn returns the index of v's own address in addrs, -1 when it is
// not there or v has none (a static node's).
func (v *view) rankIn(addrs []string) int {
	if v.Self < 0 || v.Self >= len(v.Addrs) || v.Addrs[v.Self] == "" {
		return -1
	}
	return slices.Index(addrs, v.Addrs[v.Self])
}

// next returns the view the committed change m makes of v: m's epoch
// and members, the node's rank found by its address among them, and
// the topology fitted with topo.Resize. It has no caller yet.
func (v *view) next(m wire.MembershipUpdate) *view {
	return &view{View: View{Epoch: m.Epoch, Addrs: m.Addrs, Self: v.rankIn(m.Addrs),
		Topology: v.Topology.Resize(len(m.Addrs), m.Leaving)}}
}

// req is one request as the node serves it: the node and the view the
// request loaded once, whose numbering it addresses peers by.
type req struct {
	*Node
	v *view
}

// execFor returns the executor for a scheme. Keys whose config is still
// schemeless (created by an add or delete whose config is unset) fall
// back to the replicated executor, whose unconditional broadcasts match
// the monolith's default branches.
func execFor(s wire.Scheme) executor {
	switch s {
	case wire.Fixed:
		return fixedExec{}
	case wire.RandomServer:
		return rsExec{}
	case wire.RoundRobin:
		return roundExec{}
	case wire.Hash, wire.MultiProbe:
		return homesExec{}
	case wire.KeyPartition:
		return partExec{}
	default:
		return fullExec{}
	}
}
