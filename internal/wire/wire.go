// Package wire defines the protocol messages exchanged between clients
// and lookup servers (and between servers), together with a compact
// binary codec used by the TCP transport.
//
// Every operation in the paper maps to a message here:
//
//   - place / add / delete / partial_lookup client requests (Sec. 2)
//   - store / remove server broadcasts (Secs. 3, 5)
//   - the Round-Robin delete-and-migrate protocol of Fig. 11
//
// Messages are plain data; all behavior lives in internal/node (server
// side) and internal/strategy (client side).
package wire

import "fmt"

// Scheme identifies one of the paper's five placement strategies.
type Scheme uint8

// The five strategies of Sec. 3. Values start at one so the zero value
// is detectably unset.
const (
	FullReplication Scheme = iota + 1
	Fixed
	RandomServer
	RoundRobin
	Hash
	// KeyPartition is the traditional hashing baseline of Fig. 1
	// (center): the key is hashed to a single server that stores the
	// complete entry set. It is not a partial-lookup strategy — the
	// paper's conclusion contrasts partial lookups against exactly
	// this design's hot-spot and fault-tolerance weaknesses.
	KeyPartition
	// MultiProbe is multi-probe consistent hashing (arXiv:1505.00062),
	// added for elastic clusters: entry v lives on y servers chosen by
	// probing a hash ring whose per-server points do not depend on n,
	// so membership changes move only ~1/(n+1) of the entries —
	// against Hash-y's mod-n assignment, which remaps nearly all of
	// them. Like Hash-y it keeps no per-key coordinator state and uses
	// Y and Seed.
	MultiProbe
)

// String returns the paper's name for the scheme.
func (s Scheme) String() string {
	switch s {
	case FullReplication:
		return "FullReplication"
	case Fixed:
		return "Fixed-x"
	case RandomServer:
		return "RandomServer-x"
	case RoundRobin:
		return "Round-y"
	case Hash:
		return "Hash-y"
	case KeyPartition:
		return "KeyPartition"
	case MultiProbe:
		return "MultiProbe-y"
	default:
		return fmt.Sprintf("Scheme(%d)", uint8(s))
	}
}

// Valid reports whether s is one of the defined schemes.
func (s Scheme) Valid() bool { return s >= FullReplication && s <= MultiProbe }

// Config selects a strategy and its parameter for one key. Exactly one
// of X or Y is meaningful depending on the scheme:
//
//   - Fixed and RandomServer use X, the per-server subset size;
//   - RoundRobin and Hash use Y, the replication degree;
//   - FullReplication uses neither.
type Config struct {
	Scheme Scheme
	X      int
	Y      int
	// Seed selects the Hash-y hash family f1..fy. All servers learn it
	// from the config carried on placement/update messages, so the
	// family is consistent cluster-wide. Zero is a valid family;
	// experiments draw a fresh seed per run to average over families,
	// as the paper's simulations do.
	Seed uint64
	// Coordinators is the number of servers mirroring the Round-y
	// head/tail counters (servers 0..Coordinators-1). The paper's
	// footnote 1 suggests this generalization of the centralized
	// scheme "to improve reliability": updates go to the lowest-id
	// live coordinator, and counter changes are mirrored to the rest,
	// so Round-y updates survive coordinator failures. Zero or one
	// means the paper's base scheme (server 0 only).
	Coordinators int
	// RSReplace selects the Sec. 5.3 alternative delete handling for
	// RandomServer-x: instead of tolerating a below-x set until new
	// adds arrive (the cushion scheme), a server that deletes a local
	// copy actively contacts other servers to find a replacement
	// entry. The paper argues this costs more and is no fairer; the
	// ext-rsreplace experiment measures that claim.
	RSReplace bool
	// ZoneSpread selects topology-aware placement: each key's entries
	// are spread across failure domains (racks, DCs, regions) using
	// the cluster's shared topo.Topology instead of the scheme's base
	// assignment, so no single zone holds every copy of an entry.
	// Servers without an attached topology ignore the flag and fall
	// back to base placement; see DESIGN.md §6, "Zone-spread
	// placement", for the consistency contract.
	ZoneSpread bool
}

// Validate checks that the config is internally consistent for a cluster
// of n servers.
func (c Config) Validate(n int) error {
	if !c.Scheme.Valid() {
		return fmt.Errorf("wire: invalid scheme %d", c.Scheme)
	}
	switch c.Scheme {
	case Fixed, RandomServer:
		if c.X <= 0 {
			return fmt.Errorf("wire: %v requires x > 0, got %d", c.Scheme, c.X)
		}
	case RoundRobin, Hash, MultiProbe:
		if c.Y <= 0 {
			return fmt.Errorf("wire: %v requires y > 0, got %d", c.Scheme, c.Y)
		}
		if c.Scheme == RoundRobin && c.Y > n && n > 0 {
			return fmt.Errorf("wire: Round-y requires y <= n, got y=%d n=%d", c.Y, n)
		}
		if c.Scheme == RoundRobin && c.Coordinators > n && n > 0 {
			return fmt.Errorf("wire: Round-y requires coordinators <= n, got %d of %d", c.Coordinators, n)
		}
	}
	return nil
}

// Param returns the scheme's active parameter value (x or y, 0 for full
// replication), for display.
func (c Config) Param() int {
	switch c.Scheme {
	case Fixed, RandomServer:
		return c.X
	case RoundRobin, Hash, MultiProbe:
		return c.Y
	default:
		return 0
	}
}

// String renders the config the way the paper labels curves, e.g.
// "RandomServer-20" or "Hash-2".
func (c Config) String() string {
	switch c.Scheme {
	case FullReplication:
		return "FullReplication"
	case Fixed:
		return fmt.Sprintf("Fixed-%d", c.X)
	case RandomServer:
		if c.RSReplace {
			return fmt.Sprintf("RandomServer-%d+replace", c.X)
		}
		return fmt.Sprintf("RandomServer-%d", c.X)
	case RoundRobin:
		return fmt.Sprintf("Round-%d", c.Y)
	case Hash:
		return fmt.Sprintf("Hash-%d", c.Y)
	case KeyPartition:
		return "KeyPartition"
	case MultiProbe:
		return fmt.Sprintf("MultiProbe-%d", c.Y)
	default:
		return fmt.Sprintf("Config(%d)", uint8(c.Scheme))
	}
}

// Kind discriminates message types on the wire.
type Kind uint8

// Message kinds. Values are part of the wire format; do not reorder.
const (
	KindPlace Kind = iota + 1
	KindAdd
	KindDelete
	KindLookup
	KindStoreBatch
	KindStoreOne
	KindRemoveOne
	KindRoundRemove
	KindRemoveAt
	KindCounterSync
	KindMigrate
	KindDump
	KindPing
	KindAck
	KindLookupReply
	KindMigrateReply
	KindDumpReply
	KindPlaceBatch
	KindAddBatch
	KindLookupBatch
	KindBatchAck
	KindLookupBatchReply
	KindWalReset
	KindWalConfig
	KindWalStore
	KindWalStoreMany
	KindWalRemove
	KindWalCounters
	KindWalHCount
	KindSnapKey
	KindSnapFooter
	KindRepairQuery
	KindRepairQueryReply
	KindRepairPush
	KindRepairPushReply
	KindJoin
	KindLeave
	KindMembershipUpdate
	KindRebalancePush
	KindStoreBatches
)

// MaintenanceKind reports whether k belongs to the background
// maintenance protocols — anti-entropy repair and dynamic membership
// (join/leave/rebalance) — rather than the request path. The transport
// uses it to split connection-reuse telemetry by traffic class.
func MaintenanceKind(k Kind) bool {
	return (k >= KindRepairQuery && k <= KindRepairPushReply) ||
		(k >= KindJoin && k <= KindRebalancePush)
}

// ServedInline lists the kinds a server answers from memory alone — no
// peer call, no WAL wait — so it reads and answers them on one
// connection's reader goroutine, many per read and per write. The node
// detaches every other kind, one added later included, and the mux
// client lets only these share a write with the callers it has just
// woken: for them a shared write pays on both ends.
func ServedInline(k Kind) bool {
	return k == KindLookup || k == KindLookupBatch || k == KindPing
}

// Message is implemented by every protocol message.
type Message interface {
	Kind() Kind
}

// Place is the client's place(k, {v1..vh}) request, sent to one random
// server which then distributes entries per the key's strategy. Config
// travels with the request so servers learn how the key is managed.
type Place struct {
	Key     string
	Config  Config
	Entries []string
}

// Add is the client's add(k, v) request. Config rides along so a server
// that has not yet seen the key (e.g. it joined after the place, or the
// placement left it empty) can still apply the right scheme.
type Add struct {
	Key    string
	Config Config
	Entry  string
}

// Delete is the client's delete(k, v) request. See Add for why Config is
// included.
type Delete struct {
	Key    string
	Config Config
	Entry  string
}

// Lookup is the client's partial_lookup(k, t) probe of a single server.
// The client-side strategy driver decides which and how many servers to
// probe; each probe asks for up to T entries.
type Lookup struct {
	Key string
	T   int
}

// StoreBatch is the server-to-server message of a place operation under
// every scheme: it carries the entry list (Fixed-x: its first x) to
// every server (KeyPartition: to the key's one server), and each
// receiver resets the key and keeps what its scheme's rule gives it —
// everything, a random x-subset, the Round-y positions whose window
// covers it, the entries it is a Hash-y or MultiProbe-y home of.
type StoreBatch struct {
	Key     string
	Config  Config
	Entries []string
}

// StoreBatches carries the StoreBatch messages one PlaceBatch has for
// one server in a single envelope, answered by a BatchAck with one
// outcome per item. A server's single share travels as a bare
// StoreBatch.
type StoreBatches struct {
	Items []StoreBatch
}

// StoreOne instructs a server to store a single entry: the per-copy
// message of add under every scheme. Placement does not use it.
// Config is included so that receivers can lazily initialize per-key
// state when an add precedes any place. Pos is the entry's round-robin
// sequence position (meaningful for Round-y only): the entry at
// position p lives on servers (p mod n)..(p+y-1 mod n), the invariant
// the Fig. 11 migration protocol maintains.
type StoreOne struct {
	Key    string
	Config Config
	Entry  string
	Pos    int
}

// RemoveOne instructs a server to delete its local copy of an entry.
// It is also the "remove(u)" message of the Fig. 11 migration protocol.
type RemoveOne struct {
	Key    string
	Config Config
	Entry  string
}

// RoundRemove is the Fig. 11 broadcast "remove(v, head)": delete v and,
// if the receiver stored v, fetch a replacement from the head server.
// HeadServer is the server id responsible for supplying the replacement
// (head mod n), and HeadPos is the round-robin position the replacement
// entry currently occupies.
type RoundRemove struct {
	Key        string
	Entry      string
	HeadServer int
	HeadPos    int
}

// RemoveAt retires the replacement entry's original copies after a
// Fig. 11 migration completes: delete the local copy of Entry only if
// it still sits at round-robin position Pos (copies that migrated into
// the hole carry the hole's position and must survive).
type RemoveAt struct {
	Key   string
	Entry string
	Pos   int
}

// CounterSync mirrors the Round-y coordinator counters to a standby
// coordinator (footnote 1 generalization). Receivers adopt the values
// only if they advance their local view, so replayed or reordered
// syncs are harmless.
type CounterSync struct {
	Key  string
	Head int
	Tail int
}

// Migrate is the Fig. 11 "migrate(v)" request sent to the head server by
// each server that stored the deleted entry v.
type Migrate struct {
	Key   string
	Entry string
}

// PlaceBatch carries many place(k, {v1..vh}) requests in one envelope,
// amortizing one network round trip (and, server-side, one dispatch)
// across keys. The receiving server executes each item exactly as it
// would a standalone Place and reports per-item outcomes in a BatchAck.
// Items must share an initial server: the client groups keys by route
// (Round-y coordinator, KeyPartition home, or one random server).
type PlaceBatch struct {
	Items []Place
}

// AddBatch carries many add(k, v) requests in one envelope; see
// PlaceBatch for routing and reply semantics.
type AddBatch struct {
	Items []Add
}

// LookupBatch carries many partial_lookup probes in one envelope: one
// round trip asks a single server about many keys. The reply holds one
// LookupReply per item, in order.
type LookupBatch struct {
	Items []Lookup
}

// Dump asks a server for its complete local entry set for a key
// (debugging, integration tests, metric snapshots over TCP).
type Dump struct {
	Key string
}

// Ping checks liveness.
type Ping struct{}

// Ack is the generic reply. Err is empty on success.
type Ack struct {
	Err string
}

// LookupReply returns up to T entries sampled from the server's local
// set, or an error.
type LookupReply struct {
	Entries []string
	Err     string
}

// MigrateReply returns the replacement entry chosen by the head server.
// Found is false when no replacement exists (e.g. the head server has no
// other entries).
type MigrateReply struct {
	Replacement string
	Found       bool
	Err         string
}

// DumpReply returns a server's complete local set for a key.
type DumpReply struct {
	Entries []string
	Err     string
}

// BatchAck is the reply to PlaceBatch, AddBatch and StoreBatches: Errs[i] is the
// per-item outcome ("" on success), always len(Items) long. Err reports
// an envelope-level failure (e.g. a malformed batch) instead.
type BatchAck struct {
	Errs []string
	Err  string
}

// LookupBatchReply answers a LookupBatch: Replies[i] answers Items[i].
type LookupBatchReply struct {
	Replies []LookupReply
	Err     string
}

// WAL record messages. These never cross the network: they are the
// durability records a node appends to its write-ahead log (see
// internal/store and DESIGN.md §7). They reuse the wire codec so the
// WAL format shares the codec's bounds checks and fuzz coverage.
//
// Records describe the *outcome* of a mutation, not its input: a
// RandomServer-x reservoir decision is logged as the store/remove pair
// it produced, so replay never consults the RNG and recovery is
// placement-identical.

// WalReset records a key reset by a place broadcast: install Config,
// clear the entry set, drop strategy extension state. The entries the
// receiver selected follow as WalStoreMany/WalStore records.
type WalReset struct {
	Key    string
	Config Config
}

// WalConfig records a key's creation or lazy config adoption without
// touching entries.
type WalConfig struct {
	Key    string
	Config Config
}

// WalStore records one entry stored locally. HasPos marks Round-y
// placements, where Pos is the entry's round-robin sequence position.
type WalStore struct {
	Key    string
	Entry  string
	Pos    int
	HasPos bool
}

// WalStoreMany records a run of position-less local stores in
// application order (the selection a place broadcast left behind).
type WalStoreMany struct {
	Key     string
	Entries []string
}

// WalRemove records one entry removed locally (and its round-robin
// position forgotten, if it had one).
type WalRemove struct {
	Key   string
	Entry string
}

// WalCounters records the absolute Round-y coordinator counters after a
// mutation. Absolute values make replay order-insensitive to the
// adopt-if-advance rule of CounterSync.
type WalCounters struct {
	Key  string
	Head int
	Tail int
}

// WalHCount records the absolute RandomServer-x system-size counter
// after a mutation (the reservoir denominator of Sec. 5.3).
type WalHCount struct {
	Key    string
	HCount int
}

// SnapKey is one key's complete durable state in a snapshot file:
// config, the entry set with its insertion sequences (order matters —
// lookup sampling indexes the internal member order), and the
// scheme-private extension state. LSN is the WAL sequence number of the
// last record applied to the key when the snapshot observed it; replay
// skips records at or below it.
type SnapKey struct {
	Key    string
	Config Config
	LSN    uint64
	// Entries in internal set order with their parallel insertion
	// sequences; NextSeq is the set's next sequence counter.
	Entries []string
	Seqs    []uint64
	NextSeq uint64
	// ExtKind discriminates the extension state: 0 none, 1 Round-y
	// (Head/Tail/PosEntries/Positions), 2 RandomServer-x (HCount).
	ExtKind uint8
	Head    int
	Tail    int
	// PosEntries/Positions are the Round-y position map as parallel
	// slices.
	PosEntries []string
	Positions  []uint64
	HCount     int
}

// Extension-state discriminants for SnapKey.ExtKind.
const (
	SnapExtNone  uint8 = 0
	SnapExtRound uint8 = 1
	SnapExtRS    uint8 = 2
)

// SnapFooter terminates a snapshot file and carries the number of
// SnapKey frames written; a snapshot without a matching footer is
// truncated and invalid.
type SnapFooter struct {
	Keys uint64
}

// RepairQuery is phase one of an anti-entropy sweep: the sweeper asks a
// peer which of the listed candidate entries for a key it is missing.
// The peer answers with RepairQueryReply so that phase two (RepairPush)
// transfers only entries that are actually absent, keeping converged
// sweeps cheap on the wire.
type RepairQuery struct {
	Key     string
	Entries []string
}

// RepairQueryReply answers a RepairQuery. Missing is parallel to the
// query's Entries (true = the peer does not hold that entry). Len is
// the peer's current local set size for the key and HCount its
// RandomServer-x system-size counter, letting the sweeper cap
// fill-to-x pushes without a second round trip.
type RepairQueryReply struct {
	Missing []bool
	Len     int
	HCount  int
	Err     string
}

// RepairPush is phase two of an anti-entropy sweep: the sweeper
// re-replicates entries the peer reported missing. Config rides along
// so a freshly replaced, empty server adopts the key's scheme. For
// Round-y, HasPos is set and Positions carries each entry's original
// position in parallel with Entries — repair plugs holes at existing
// positions, it never redraws them. HCount propagates the
// RandomServer-x reservoir denominator (adopt-if-greater on receipt).
type RepairPush struct {
	Key       string
	Config    Config
	Entries   []string
	Positions []uint64
	HasPos    bool
	HCount    int
}

// RepairPushReply reports how many pushed entries the peer accepted
// after applying its scheme's local acceptance rule (cap at x, legal
// Round/Hash home, partition ownership).
type RepairPushReply struct {
	Accepted int
	Err      string
}

// Membership messages. A cluster's member list is versioned by a
// monotone epoch; every change (one join or one graceful leave) bumps
// it exactly once and is announced to every member as a
// MembershipUpdate, whose receipt triggers that member's synchronous
// rebalance sweep (see internal/node membership.go and DESIGN.md §6,
// "Membership").

// Join announces a new server to any existing member, which acts as
// the membership coordinator for this change: it assigns the next
// slot and commits the matching MembershipUpdate on every member. The
// reply is that MembershipUpdate (carrying the joiner's slot as the
// sole Joined element and the full address list) or an Ack with Err.
type Join struct {
	Addr string
}

// Leave asks for a graceful drain of one member: every node rebalances
// the leaver's entries onto the surviving members before the slot is
// retired (contrast with kill/replace churn, where the entries are
// lost and anti-entropy repair re-replicates from surviving copies).
// Like Join, any member coordinates it, and the reply is the committed
// MembershipUpdate once the handoff completed, or an Ack with Err.
type Leave struct {
	Server int
}

// MembershipUpdate is the coordinator's commit of one member-list
// change, sent to every member. Epoch is the post-change version; a
// receiver acks its committed update again as a replay and refuses any
// other at or below its epoch. Joined lists slots added at this epoch;
// Leaving is the slot draining out, -1 if none. Addrs is the
// post-change member address list. Handling the update runs the
// receiver's rebalance sweep; the Ack reply means the sweep finished.
type MembershipUpdate struct {
	Epoch   uint64
	OldN    int
	NewN    int
	Joined  []int
	Leaving int
	Addrs   []string
}

// RebalancePush transfers entries whose placement changed with the
// member list, phase two of a rebalance sweep (phase one reuses
// RepairQuery so converged keys cost one message). It carries the same
// payload as RepairPush plus the membership transition itself — NewN
// and Leaving — so the receiver can validate homes and windows under
// the post-change cluster size and derive its own post-change rank
// without global state. The reply is a RepairPushReply.
type RebalancePush struct {
	Key       string
	Config    Config
	Entries   []string
	Positions []uint64
	HasPos    bool
	HCount    int
	Epoch     uint64
	NewN      int
	Leaving   int
}

// Kind implementations.

func (Place) Kind() Kind            { return KindPlace }
func (Add) Kind() Kind              { return KindAdd }
func (Delete) Kind() Kind           { return KindDelete }
func (Lookup) Kind() Kind           { return KindLookup }
func (StoreBatch) Kind() Kind       { return KindStoreBatch }
func (StoreOne) Kind() Kind         { return KindStoreOne }
func (RemoveOne) Kind() Kind        { return KindRemoveOne }
func (RoundRemove) Kind() Kind      { return KindRoundRemove }
func (RemoveAt) Kind() Kind         { return KindRemoveAt }
func (CounterSync) Kind() Kind      { return KindCounterSync }
func (Migrate) Kind() Kind          { return KindMigrate }
func (Dump) Kind() Kind             { return KindDump }
func (Ping) Kind() Kind             { return KindPing }
func (Ack) Kind() Kind              { return KindAck }
func (LookupReply) Kind() Kind      { return KindLookupReply }
func (MigrateReply) Kind() Kind     { return KindMigrateReply }
func (DumpReply) Kind() Kind        { return KindDumpReply }
func (PlaceBatch) Kind() Kind       { return KindPlaceBatch }
func (AddBatch) Kind() Kind         { return KindAddBatch }
func (LookupBatch) Kind() Kind      { return KindLookupBatch }
func (BatchAck) Kind() Kind         { return KindBatchAck }
func (LookupBatchReply) Kind() Kind { return KindLookupBatchReply }
func (WalReset) Kind() Kind         { return KindWalReset }
func (WalConfig) Kind() Kind        { return KindWalConfig }
func (WalStore) Kind() Kind         { return KindWalStore }
func (WalStoreMany) Kind() Kind     { return KindWalStoreMany }
func (WalRemove) Kind() Kind        { return KindWalRemove }
func (WalCounters) Kind() Kind      { return KindWalCounters }
func (WalHCount) Kind() Kind        { return KindWalHCount }
func (SnapKey) Kind() Kind          { return KindSnapKey }
func (SnapFooter) Kind() Kind       { return KindSnapFooter }
func (RepairQuery) Kind() Kind      { return KindRepairQuery }
func (RepairQueryReply) Kind() Kind { return KindRepairQueryReply }
func (RepairPush) Kind() Kind       { return KindRepairPush }
func (RepairPushReply) Kind() Kind  { return KindRepairPushReply }
func (Join) Kind() Kind             { return KindJoin }
func (Leave) Kind() Kind            { return KindLeave }
func (MembershipUpdate) Kind() Kind { return KindMembershipUpdate }
func (RebalancePush) Kind() Kind    { return KindRebalancePush }
func (StoreBatches) Kind() Kind     { return KindStoreBatches }
