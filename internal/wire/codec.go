package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Codec limits. Oversized fields are rejected at decode time so a
// malformed or hostile peer cannot force huge allocations.
const (
	// MaxPayload is the largest encoded message the codec accepts.
	MaxPayload = 16 << 20
	// maxSliceLen bounds decoded slice lengths.
	maxSliceLen = 1 << 20
	// maxStringLen bounds decoded string lengths.
	maxStringLen = 1 << 16
)

// Encoding errors.
var (
	ErrTruncated  = errors.New("wire: truncated message")
	ErrOversized  = errors.New("wire: oversized field")
	ErrUnknown    = errors.New("wire: unknown message kind")
	ErrTrailing   = errors.New("wire: trailing bytes after message")
	ErrBadVarint  = errors.New("wire: malformed varint")
	ErrBadMessage = errors.New("wire: malformed message")
)

// Encode serializes msg as a kind byte followed by its fields.
func Encode(msg Message) []byte {
	return AppendEncode(make([]byte, 0, 64), msg)
}

// AppendEncode appends msg's encoding to dst and returns the extended
// slice, exactly as append does. It is the zero-allocation form of
// Encode: callers on the hot path keep a scratch buffer (typically from
// a sync.Pool) and re-encode into it, so steady-state encoding performs
// no allocations at all. The bytes produced are identical to Encode's.
func AppendEncode(dst []byte, msg Message) []byte {
	e := encoder{buf: dst}
	e.byte(byte(msg.Kind()))
	switch m := msg.(type) {
	case Place:
		e.str(m.Key)
		e.config(m.Config)
		e.strs(m.Entries)
	case Add:
		e.str(m.Key)
		e.config(m.Config)
		e.str(m.Entry)
	case Delete:
		e.str(m.Key)
		e.config(m.Config)
		e.str(m.Entry)
	case Lookup:
		e.str(m.Key)
		e.uvarint(uint64(m.T))
	case StoreBatch:
		e.str(m.Key)
		e.config(m.Config)
		e.strs(m.Entries)
	case StoreOne:
		e.str(m.Key)
		e.config(m.Config)
		e.str(m.Entry)
		e.uvarint(uint64(m.Pos))
	case RemoveOne:
		e.str(m.Key)
		e.config(m.Config)
		e.str(m.Entry)
	case RoundRemove:
		e.str(m.Key)
		e.str(m.Entry)
		e.uvarint(uint64(m.HeadServer))
		e.uvarint(uint64(m.HeadPos))
	case RemoveAt:
		e.str(m.Key)
		e.str(m.Entry)
		e.uvarint(uint64(m.Pos))
	case Migrate:
		e.str(m.Key)
		e.str(m.Entry)
	case Dump:
		e.str(m.Key)
	case Ping:
		// no fields
	case Ack:
		e.str(m.Err)
	case LookupReply:
		e.strs(m.Entries)
		e.str(m.Err)
	case MigrateReply:
		e.str(m.Replacement)
		e.bool(m.Found)
		e.str(m.Err)
	case DumpReply:
		e.strs(m.Entries)
		e.str(m.Err)
	case PlaceBatch:
		encodePlaces(&e, m.Items)
	case StoreBatches:
		encodePlaces(&e, m.Items)
	case AddBatch:
		e.uvarint(uint64(len(m.Items)))
		for _, it := range m.Items {
			e.str(it.Key)
			e.config(it.Config)
			e.str(it.Entry)
		}
	case LookupBatch:
		e.uvarint(uint64(len(m.Items)))
		for _, it := range m.Items {
			e.str(it.Key)
			e.uvarint(uint64(it.T))
		}
	case BatchAck:
		e.strs(m.Errs)
		e.str(m.Err)
	case LookupBatchReply:
		e.uvarint(uint64(len(m.Replies)))
		for _, r := range m.Replies {
			e.strs(r.Entries)
			e.str(r.Err)
		}
		e.str(m.Err)
	case WalConfig:
		e.str(m.Key)
		e.config(m.Config)
	case WalStore:
		e.str(m.Key)
		e.str(m.Entry)
		e.uvarint(uint64(m.Pos))
		e.bool(m.HasPos)
	case WalRemove:
		e.str(m.Key)
		e.str(m.Entry)
	case WalCounters:
		e.str(m.Key)
		e.uvarint(uint64(m.Head))
		e.uvarint(uint64(m.Tail))
	case WalHCount:
		e.str(m.Key)
		e.uvarint(uint64(m.HCount))
	case SnapKey:
		e.str(m.Key)
		e.config(m.Config)
		e.strs(m.Entries)
		e.uints(m.Seqs)
		e.uvarint(m.NextSeq)
		e.byte(m.ExtKind)
		e.uvarint(uint64(m.Head))
		e.uvarint(uint64(m.Tail))
		e.strs(m.PosEntries)
		e.uints(m.Positions)
		e.uvarint(uint64(m.HCount))
	case RepairQuery:
		e.str(m.Key)
		e.strs(m.Entries)
	case RepairQueryReply:
		e.bools(m.Missing)
		e.uvarint(uint64(m.Len))
		e.uvarint(uint64(m.HCount))
		e.uvarint(uint64(m.LowPos))
		e.uvarint(uint64(m.EndPos))
		e.str(m.Err)
	case RepairPush:
		e.str(m.Key)
		e.config(m.Config)
		e.strs(m.Entries)
		e.uints(m.Positions)
		e.bool(m.HasPos)
		e.uvarint(uint64(m.HCount))
		e.uvarint(m.Epoch)
		e.uvarint(uint64(m.NewN))
		// Leaving is -1 when the transition is a pure join; shifted by
		// one like MembershipUpdate's.
		e.uvarint(uint64(m.Leaving + 1))
	case RepairPushReply:
		e.uvarint(uint64(m.Accepted))
		e.str(m.Err)
	case Join:
		e.str(m.Addr)
	case Leave:
		e.uvarint(uint64(m.Server))
	case MembershipUpdate:
		e.uvarint(m.Epoch)
		// Leaving is -1 when the change is a pure join; shift by one so
		// the wire value stays a uvarint.
		e.uvarint(uint64(m.Leaving + 1))
		e.strs(m.Addrs)
	default:
		panic(fmt.Sprintf("wire: Encode called with unregistered message type %T", msg))
	}
	return e.buf
}

// Decode parses a message previously produced by Encode. It never
// panics on malformed input; it returns a descriptive error instead.
// The returned message is fully independent of data, which the caller
// may reuse immediately.
func Decode(data []byte) (Message, error) {
	if len(data) == 0 {
		return nil, ErrTruncated
	}
	if len(data) > MaxPayload {
		return nil, ErrOversized
	}
	// One arena copy up front: every decoded string is a view into it,
	// so a message costs one byte-slice allocation regardless of how
	// many string fields it carries, and the caller keeps ownership of
	// data.
	arena := make([]byte, len(data))
	copy(arena, data)
	return decode(arena)
}

// decode parses the non-empty arena Decode copied; decoded string
// fields alias it. Each kind is one literal whose fields are read in
// the order AppendEncode writes them (Go evaluates the calls as
// written); the decoder keeps the first error, checked once at the end.
func decode(data []byte) (Message, error) {
	d := decoder{buf: data[1:]}
	var msg Message
	switch kind := Kind(data[0]); kind {
	case KindPlace:
		msg = d.place()
	case KindAdd:
		msg = d.add()
	case KindDelete:
		msg = Delete{Key: d.str(), Config: d.config(), Entry: d.str()}
	case KindLookup:
		msg = d.lookup()
	case KindStoreBatch:
		msg = StoreBatch(d.place())
	case KindStoreOne:
		msg = StoreOne{Key: d.str(), Config: d.config(), Entry: d.str(), Pos: d.intval()}
	case KindRemoveOne:
		msg = RemoveOne{Key: d.str(), Config: d.config(), Entry: d.str()}
	case KindRoundRemove:
		msg = RoundRemove{Key: d.str(), Entry: d.str(), HeadServer: d.intval(), HeadPos: d.intval()}
	case KindRemoveAt:
		msg = RemoveAt{Key: d.str(), Entry: d.str(), Pos: d.intval()}
	case KindMigrate:
		msg = Migrate{Key: d.str(), Entry: d.str()}
	case KindDump:
		msg = Dump{Key: d.str()}
	case KindPing:
		msg = Ping{}
	case KindAck:
		msg = Ack{Err: d.str()}
	case KindLookupReply:
		msg = d.lookupReply()
	case KindMigrateReply:
		msg = MigrateReply{Replacement: d.str(), Found: d.boolval(), Err: d.str()}
	case KindDumpReply:
		msg = DumpReply{Entries: d.strs(), Err: d.str()}
	case KindPlaceBatch:
		var m PlaceBatch
		if n := d.listLen(); n > 0 {
			m.Items = make([]Place, 0, min(n, 1024))
			for i := 0; i < n && d.err == nil; i++ {
				m.Items = append(m.Items, d.place())
			}
		}
		msg = m
	case KindStoreBatches:
		var m StoreBatches
		if n := d.listLen(); n > 0 {
			m.Items = make([]StoreBatch, 0, min(n, 1024))
			for i := 0; i < n && d.err == nil; i++ {
				m.Items = append(m.Items, StoreBatch(d.place()))
			}
		}
		msg = m
	case KindAddBatch:
		var m AddBatch
		if n := d.listLen(); n > 0 {
			m.Items = make([]Add, 0, min(n, 1024))
			for i := 0; i < n && d.err == nil; i++ {
				m.Items = append(m.Items, d.add())
			}
		}
		msg = m
	case KindLookupBatch:
		var m LookupBatch
		if n := d.listLen(); n > 0 {
			m.Items = make([]Lookup, 0, min(n, 1024))
			for i := 0; i < n && d.err == nil; i++ {
				m.Items = append(m.Items, d.lookup())
			}
		}
		msg = m
	case KindBatchAck:
		msg = BatchAck{Errs: d.strs(), Err: d.str()}
	case KindLookupBatchReply:
		var m LookupBatchReply
		if n := d.listLen(); n > 0 {
			m.Replies = make([]LookupReply, 0, min(n, 1024))
			for i := 0; i < n && d.err == nil; i++ {
				m.Replies = append(m.Replies, d.lookupReply())
			}
		}
		m.Err = d.str()
		msg = m
	case KindWalConfig:
		msg = WalConfig{Key: d.str(), Config: d.config()}
	case KindWalStore:
		msg = WalStore{Key: d.str(), Entry: d.str(), Pos: d.intval(), HasPos: d.boolval()}
	case KindWalRemove:
		msg = WalRemove{Key: d.str(), Entry: d.str()}
	case KindWalCounters:
		msg = WalCounters{Key: d.str(), Head: d.intval(), Tail: d.intval()}
	case KindWalHCount:
		msg = WalHCount{Key: d.str(), HCount: d.intval()}
	case KindSnapKey:
		msg = SnapKey{
			Key: d.str(), Config: d.config(),
			Entries: d.strs(), Seqs: d.uints(), NextSeq: d.uvarint(),
			ExtKind: d.byteval(), Head: d.intval(), Tail: d.intval(),
			PosEntries: d.strs(), Positions: d.uints(), HCount: d.intval(),
		}
	case KindRepairQuery:
		msg = RepairQuery{Key: d.str(), Entries: d.strs()}
	case KindRepairQueryReply:
		msg = RepairQueryReply{Missing: d.bools(), Len: d.intval(), HCount: d.intval(), LowPos: d.intval(), EndPos: d.intval(), Err: d.str()}
	case KindRepairPush:
		msg = RepairPush{
			Key: d.str(), Config: d.config(), Entries: d.strs(),
			Positions: d.uints(), HasPos: d.boolval(), HCount: d.intval(),
			Epoch: d.uvarint(), NewN: d.intval(), Leaving: d.intval() - 1,
		}
	case KindRepairPushReply:
		msg = RepairPushReply{Accepted: d.intval(), Err: d.str()}
	case KindJoin:
		msg = Join{Addr: d.str()}
	case KindLeave:
		msg = Leave{Server: d.intval()}
	case KindMembershipUpdate:
		// Leaving travels shifted by one (see AppendEncode).
		msg = MembershipUpdate{Epoch: d.uvarint(), Leaving: d.intval() - 1, Addrs: d.strs()}
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknown, kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, ErrTrailing
	}
	return msg, nil
}

type encoder struct {
	buf []byte
}

func (e *encoder) byte(b byte) { e.buf = append(e.buf, b) }

func (e *encoder) bool(v bool) {
	if v {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (e *encoder) uvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *encoder) strs(ss []string) {
	e.uvarint(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

func (e *encoder) bools(vs []bool) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.bool(v)
	}
}

func (e *encoder) uints(vs []uint64) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.uvarint(v)
	}
}

func (e *encoder) config(c Config) {
	e.byte(byte(c.Scheme))
	e.uvarint(uint64(c.X))
	e.uvarint(uint64(c.Y))
	e.uvarint(c.Seed)
	e.bool(c.RSReplace)
	e.bool(c.ZoneSpread)
}

// encodePlaces writes the items of a PlaceBatch or a StoreBatches, which
// share one layout: a count, then key, config and entry list per item.
func encodePlaces[T Place | StoreBatch](e *encoder, items []T) {
	e.uvarint(uint64(len(items)))
	for _, item := range items {
		it := Place(item)
		e.str(it.Key)
		e.config(it.Config)
		e.strs(it.Entries)
	}
}

// decoder reads fields off the front of buf. Its error is sticky: the
// first malformed field sets err and empties buf, and every read after
// it returns the zero value, so a message's fields can be read in one
// expression and err checked once. Loops over a decoded count must stop
// on err themselves — a hostile count is bounded by maxSliceLen, not by
// the bytes that follow it.
type decoder struct {
	buf []byte
	err error
}

// fail records err unless an earlier read already failed.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.buf = nil
}

func (d *decoder) byteval() byte {
	if len(d.buf) < 1 {
		d.fail(ErrTruncated)
		return 0
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b
}

func (d *decoder) boolval() bool {
	b := d.byteval()
	if b > 1 {
		d.fail(ErrBadMessage)
	}
	return b == 1
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail(ErrBadVarint)
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

func (d *decoder) intval() int {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail(ErrOversized)
		return 0
	}
	return int(v)
}

func (d *decoder) str() string {
	n := d.uvarint()
	if n > maxStringLen {
		d.fail(ErrOversized)
		return ""
	}
	if uint64(len(d.buf)) < n {
		d.fail(ErrTruncated)
		return ""
	}
	s := view(d.buf[:n])
	d.buf = d.buf[n:]
	return s
}

// view reinterprets b as a string without copying. Decoded strings may
// be retained indefinitely (entry sets store them), so this is sound
// only because every decode runs over an immutable buffer the decoder
// owns: Decode copies the input into a private arena first.
func view(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// listLen reads and bounds the element count of a list or a batch.
func (d *decoder) listLen() int {
	n := d.uvarint()
	if n > maxSliceLen {
		d.fail(ErrOversized)
		return 0
	}
	return int(n)
}

// The list readers are concrete loops: a shared one taking the element
// reader as a func value makes the decoder escape to the heap, one more
// allocation on every Decode.

func (d *decoder) bools() []bool {
	n := d.listLen()
	if n == 0 {
		return nil
	}
	out := make([]bool, 0, min(n, 1024))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.boolval())
	}
	return out
}

func (d *decoder) uints() []uint64 {
	n := d.listLen()
	if n == 0 {
		return nil
	}
	out := make([]uint64, 0, min(n, 1024))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.uvarint())
	}
	return out
}

func (d *decoder) strs() []string {
	n := d.listLen()
	if n == 0 {
		return nil
	}
	out := make([]string, 0, min(n, 1024))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

func (d *decoder) config() Config {
	return Config{
		Scheme: Scheme(d.byteval()), X: d.intval(), Y: d.intval(), Seed: d.uvarint(),
		RSReplace: d.boolval(), ZoneSpread: d.boolval(),
	}
}

// place reads the layout Place and StoreBatch share, alone or as a batch
// item; add, lookup and lookupReply likewise serve the message and the
// item of its batch.
func (d *decoder) place() Place {
	return Place{Key: d.str(), Config: d.config(), Entries: d.strs()}
}

func (d *decoder) add() Add {
	return Add{Key: d.str(), Config: d.config(), Entry: d.str()}
}

func (d *decoder) lookup() Lookup {
	return Lookup{Key: d.str(), T: d.intval()}
}

func (d *decoder) lookupReply() LookupReply {
	return LookupReply{Entries: d.strs(), Err: d.str()}
}
