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
	// RSReplace selects the Sec. 5.3 alternative delete handling for
	// RandomServer-x: instead of tolerating a below-x set until new
	// adds arrive (the cushion scheme), a server that deletes a local
	// copy actively contacts other servers to find a replacement
	// entry. The paper argues this costs more and is no fairer; the
	// ext-rsreplace experiment measures that claim.
	RSReplace bool
	// ZoneSpread selects topology-aware placement: each key's entries
	// are spread across failure domains (racks, DCs, regions) using
	// the cluster's topo.Topology instead of the scheme's base
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
	_ // retired: CounterSync, which mirrored Round-y counters to standby coordinators
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
	_ // retired: WalReset, which opened a place share; a SnapKey holds one now
	KindWalConfig
	KindWalStore
	_ // retired: WalStoreMany, a place share's kept entries
	KindWalRemove
	KindWalCounters
	KindWalHCount
	KindSnapKey
	_ // retired: SnapFooter, which ended the snapshot files of earlier versions
	KindRepairQuery
	KindRepairQueryReply
	KindRepairPush
	KindRepairPushReply
	KindJoin
	KindLeave
	KindMembershipUpdate
	_ // retired: RebalancePush, now a RepairPush carrying its transition
	KindStoreBatches
)

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
// an envelope-level failure (e.g. a malformed batch, or a log that could
// not commit the items), which fails every item.
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
// it produced, and a place as the key state its share left (SnapKey),
// so replay never consults the RNG and recovery is
// placement-identical.

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

// WalRemove records one entry removed locally (and its round-robin
// position forgotten, if it had one).
type WalRemove struct {
	Key   string
	Entry string
}

// WalCounters records the absolute Round-y sequencer counters after a
// mutation, so replay installs the last record's values.
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

// SnapKey is one key's complete durable state, logged by a checkpoint
// and by a place share: config, the entry set with its insertion
// sequences (order matters — lookup sampling indexes the internal
// member order), and the scheme-private extension state. Replay
// replaces the key's state with it: the record reflects every earlier
// record of its key, and a place is one record, so a torn log holds it
// whole or not at all.
type SnapKey struct {
	Key    string
	Config Config
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
// fill-to-x pushes without a second round trip. LowPos is the lowest
// Round-y position the peer holds for the key and EndPos one past its
// highest, both 0 when it holds none: a Round-y sequencer that lost
// its counters rebuilds them from these.
type RepairQueryReply struct {
	Missing []bool
	Len     int
	HCount  int
	LowPos  int
	EndPos  int
	Err     string
}

// RepairPush is phase two of both maintenance sweeps: the sweeper
// sends entries the peer reported missing. Config rides along so a
// freshly replaced, empty server adopts the key's scheme. For Round-y,
// HasPos is set and Positions carries each entry's original position in
// parallel with Entries — a sweep plugs holes at existing positions, it
// never redraws them. HCount propagates the RandomServer-x reservoir
// denominator (adopt-if-greater on receipt).
//
// NewN == 0 marks an anti-entropy repair push, accepted under the
// receiver's live membership. A rebalance sweep sets the membership
// transition it moves entries for — Epoch, NewN and Leaving (the
// draining slot, -1 if none) — so the receiver validates homes and
// windows under the post-change cluster size and derives its own
// post-change rank without global state.
type RepairPush struct {
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
// reply is that MembershipUpdate (the full address list, the joiner's
// last) or an Ack with Err.
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
// other at or below its epoch. Addrs is the post-change member address
// list, so the new cluster size is len(Addrs). Leaving is the
// pre-change slot draining out, or -1 for a join, whose joiner is the
// last address (one change per epoch). Handling the update runs the
// receiver's rebalance sweep; the Ack reply means the sweep finished.
type MembershipUpdate struct {
	Epoch   uint64
	Leaving int
	Addrs   []string
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
func (WalConfig) Kind() Kind        { return KindWalConfig }
func (WalStore) Kind() Kind         { return KindWalStore }
func (WalRemove) Kind() Kind        { return KindWalRemove }
func (WalCounters) Kind() Kind      { return KindWalCounters }
func (WalHCount) Kind() Kind        { return KindWalHCount }
func (SnapKey) Kind() Kind          { return KindSnapKey }
func (RepairQuery) Kind() Kind      { return KindRepairQuery }
func (RepairQueryReply) Kind() Kind { return KindRepairQueryReply }
func (RepairPush) Kind() Kind       { return KindRepairPush }
func (RepairPushReply) Kind() Kind  { return KindRepairPushReply }
func (Join) Kind() Kind             { return KindJoin }
func (Leave) Kind() Kind            { return KindLeave }
func (MembershipUpdate) Kind() Kind { return KindMembershipUpdate }
func (StoreBatches) Kind() Kind     { return KindStoreBatches }
