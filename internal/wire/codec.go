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
	case CounterSync:
		e.str(m.Key)
		e.uvarint(uint64(m.Head))
		e.uvarint(uint64(m.Tail))
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
	case WalReset:
		e.str(m.Key)
		e.config(m.Config)
	case WalConfig:
		e.str(m.Key)
		e.config(m.Config)
	case WalStore:
		e.str(m.Key)
		e.str(m.Entry)
		e.uvarint(uint64(m.Pos))
		e.bool(m.HasPos)
	case WalStoreMany:
		e.str(m.Key)
		e.strs(m.Entries)
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
		e.uvarint(m.LSN)
		e.strs(m.Entries)
		e.uints(m.Seqs)
		e.uvarint(m.NextSeq)
		e.byte(m.ExtKind)
		e.uvarint(uint64(m.Head))
		e.uvarint(uint64(m.Tail))
		e.strs(m.PosEntries)
		e.uints(m.Positions)
		e.uvarint(uint64(m.HCount))
	case SnapFooter:
		e.uvarint(m.Keys)
	case RepairQuery:
		e.str(m.Key)
		e.strs(m.Entries)
	case RepairQueryReply:
		e.bools(m.Missing)
		e.uvarint(uint64(m.Len))
		e.uvarint(uint64(m.HCount))
		e.str(m.Err)
	case RepairPush:
		e.str(m.Key)
		e.config(m.Config)
		e.strs(m.Entries)
		e.uints(m.Positions)
		e.bool(m.HasPos)
		e.uvarint(uint64(m.HCount))
	case RepairPushReply:
		e.uvarint(uint64(m.Accepted))
		e.str(m.Err)
	case Join:
		e.str(m.Addr)
	case Leave:
		e.uvarint(uint64(m.Server))
	case MembershipUpdate:
		e.uvarint(m.Epoch)
		e.uvarint(uint64(m.OldN))
		e.uvarint(uint64(m.NewN))
		e.ints(m.Joined)
		// Leaving is -1 when the change is a pure join; shift by one so
		// the wire value stays a uvarint.
		e.uvarint(uint64(m.Leaving + 1))
		e.strs(m.Addrs)
	case RebalancePush:
		e.str(m.Key)
		e.config(m.Config)
		e.strs(m.Entries)
		e.uints(m.Positions)
		e.bool(m.HasPos)
		e.uvarint(uint64(m.HCount))
		e.uvarint(m.Epoch)
		e.uvarint(uint64(m.NewN))
		e.uvarint(uint64(m.Leaving + 1))
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
// fields alias it.
func decode(data []byte) (Message, error) {
	d := decoder{buf: data[1:]}
	kind := Kind(data[0])
	var (
		msg Message
		err error
	)
	switch kind {
	case KindPlace:
		var m Place
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		if err == nil {
			m.Entries, err = d.strs()
		}
		msg = m
	case KindAdd:
		var m Add
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		if err == nil {
			m.Entry, err = d.str()
		}
		msg = m
	case KindDelete:
		var m Delete
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		if err == nil {
			m.Entry, err = d.str()
		}
		msg = m
	case KindLookup:
		var m Lookup
		m.Key, err = d.str()
		if err == nil {
			m.T, err = d.intval()
		}
		msg = m
	case KindStoreBatch:
		var m StoreBatch
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		if err == nil {
			m.Entries, err = d.strs()
		}
		msg = m
	case KindStoreOne:
		var m StoreOne
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		if err == nil {
			m.Entry, err = d.str()
		}
		if err == nil {
			m.Pos, err = d.intval()
		}
		msg = m
	case KindRemoveOne:
		var m RemoveOne
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		if err == nil {
			m.Entry, err = d.str()
		}
		msg = m
	case KindRoundRemove:
		var m RoundRemove
		m.Key, err = d.str()
		if err == nil {
			m.Entry, err = d.str()
		}
		if err == nil {
			m.HeadServer, err = d.intval()
		}
		if err == nil {
			m.HeadPos, err = d.intval()
		}
		msg = m
	case KindRemoveAt:
		var m RemoveAt
		m.Key, err = d.str()
		if err == nil {
			m.Entry, err = d.str()
		}
		if err == nil {
			m.Pos, err = d.intval()
		}
		msg = m
	case KindCounterSync:
		var m CounterSync
		m.Key, err = d.str()
		if err == nil {
			m.Head, err = d.intval()
		}
		if err == nil {
			m.Tail, err = d.intval()
		}
		msg = m
	case KindMigrate:
		var m Migrate
		m.Key, err = d.str()
		if err == nil {
			m.Entry, err = d.str()
		}
		msg = m
	case KindDump:
		var m Dump
		m.Key, err = d.str()
		msg = m
	case KindPing:
		msg = Ping{}
	case KindAck:
		var m Ack
		m.Err, err = d.str()
		msg = m
	case KindLookupReply:
		var m LookupReply
		m.Entries, err = d.strs()
		if err == nil {
			m.Err, err = d.str()
		}
		msg = m
	case KindMigrateReply:
		var m MigrateReply
		m.Replacement, err = d.str()
		if err == nil {
			m.Found, err = d.boolval()
		}
		if err == nil {
			m.Err, err = d.str()
		}
		msg = m
	case KindDumpReply:
		var m DumpReply
		m.Entries, err = d.strs()
		if err == nil {
			m.Err, err = d.str()
		}
		msg = m
	case KindPlaceBatch:
		var m PlaceBatch
		m.Items, err = decodePlaces[Place](&d)
		msg = m
	case KindStoreBatches:
		var m StoreBatches
		m.Items, err = decodePlaces[StoreBatch](&d)
		msg = m
	case KindAddBatch:
		var m AddBatch
		var n int
		if n, err = d.batchLen(); err == nil && n > 0 {
			m.Items = make([]Add, 0, min(n, 1024))
			for i := 0; i < n && err == nil; i++ {
				var it Add
				it.Key, err = d.str()
				if err == nil {
					it.Config, err = d.config()
				}
				if err == nil {
					it.Entry, err = d.str()
				}
				m.Items = append(m.Items, it)
			}
		}
		msg = m
	case KindLookupBatch:
		var m LookupBatch
		var n int
		if n, err = d.batchLen(); err == nil && n > 0 {
			m.Items = make([]Lookup, 0, min(n, 1024))
			for i := 0; i < n && err == nil; i++ {
				var it Lookup
				it.Key, err = d.str()
				if err == nil {
					it.T, err = d.intval()
				}
				m.Items = append(m.Items, it)
			}
		}
		msg = m
	case KindBatchAck:
		var m BatchAck
		m.Errs, err = d.strs()
		if err == nil {
			m.Err, err = d.str()
		}
		msg = m
	case KindLookupBatchReply:
		var m LookupBatchReply
		var n int
		if n, err = d.batchLen(); err == nil && n > 0 {
			m.Replies = make([]LookupReply, 0, min(n, 1024))
			for i := 0; i < n && err == nil; i++ {
				var r LookupReply
				r.Entries, err = d.strs()
				if err == nil {
					r.Err, err = d.str()
				}
				m.Replies = append(m.Replies, r)
			}
		}
		if err == nil {
			m.Err, err = d.str()
		}
		msg = m
	case KindWalReset:
		var m WalReset
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		msg = m
	case KindWalConfig:
		var m WalConfig
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		msg = m
	case KindWalStore:
		var m WalStore
		m.Key, err = d.str()
		if err == nil {
			m.Entry, err = d.str()
		}
		if err == nil {
			m.Pos, err = d.intval()
		}
		if err == nil {
			m.HasPos, err = d.boolval()
		}
		msg = m
	case KindWalStoreMany:
		var m WalStoreMany
		m.Key, err = d.str()
		if err == nil {
			m.Entries, err = d.strs()
		}
		msg = m
	case KindWalRemove:
		var m WalRemove
		m.Key, err = d.str()
		if err == nil {
			m.Entry, err = d.str()
		}
		msg = m
	case KindWalCounters:
		var m WalCounters
		m.Key, err = d.str()
		if err == nil {
			m.Head, err = d.intval()
		}
		if err == nil {
			m.Tail, err = d.intval()
		}
		msg = m
	case KindWalHCount:
		var m WalHCount
		m.Key, err = d.str()
		if err == nil {
			m.HCount, err = d.intval()
		}
		msg = m
	case KindSnapKey:
		var m SnapKey
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		if err == nil {
			m.LSN, err = d.uvarint()
		}
		if err == nil {
			m.Entries, err = d.strs()
		}
		if err == nil {
			m.Seqs, err = d.uints()
		}
		if err == nil {
			m.NextSeq, err = d.uvarint()
		}
		if err == nil {
			m.ExtKind, err = d.byteval()
		}
		if err == nil {
			m.Head, err = d.intval()
		}
		if err == nil {
			m.Tail, err = d.intval()
		}
		if err == nil {
			m.PosEntries, err = d.strs()
		}
		if err == nil {
			m.Positions, err = d.uints()
		}
		if err == nil {
			m.HCount, err = d.intval()
		}
		msg = m
	case KindSnapFooter:
		var m SnapFooter
		m.Keys, err = d.uvarint()
		msg = m
	case KindRepairQuery:
		var m RepairQuery
		m.Key, err = d.str()
		if err == nil {
			m.Entries, err = d.strs()
		}
		msg = m
	case KindRepairQueryReply:
		var m RepairQueryReply
		m.Missing, err = d.bools()
		if err == nil {
			m.Len, err = d.intval()
		}
		if err == nil {
			m.HCount, err = d.intval()
		}
		if err == nil {
			m.Err, err = d.str()
		}
		msg = m
	case KindRepairPush:
		var m RepairPush
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		if err == nil {
			m.Entries, err = d.strs()
		}
		if err == nil {
			m.Positions, err = d.uints()
		}
		if err == nil {
			m.HasPos, err = d.boolval()
		}
		if err == nil {
			m.HCount, err = d.intval()
		}
		msg = m
	case KindRepairPushReply:
		var m RepairPushReply
		m.Accepted, err = d.intval()
		if err == nil {
			m.Err, err = d.str()
		}
		msg = m
	case KindJoin:
		var m Join
		m.Addr, err = d.str()
		msg = m
	case KindLeave:
		var m Leave
		m.Server, err = d.intval()
		msg = m
	case KindMembershipUpdate:
		var m MembershipUpdate
		m.Epoch, err = d.uvarint()
		if err == nil {
			m.OldN, err = d.intval()
		}
		if err == nil {
			m.NewN, err = d.intval()
		}
		if err == nil {
			m.Joined, err = d.ints()
		}
		if err == nil {
			m.Leaving, err = d.intval()
			m.Leaving--
		}
		if err == nil {
			m.Addrs, err = d.strs()
		}
		msg = m
	case KindRebalancePush:
		var m RebalancePush
		m.Key, err = d.str()
		if err == nil {
			m.Config, err = d.config()
		}
		if err == nil {
			m.Entries, err = d.strs()
		}
		if err == nil {
			m.Positions, err = d.uints()
		}
		if err == nil {
			m.HasPos, err = d.boolval()
		}
		if err == nil {
			m.HCount, err = d.intval()
		}
		if err == nil {
			m.Epoch, err = d.uvarint()
		}
		if err == nil {
			m.NewN, err = d.intval()
		}
		if err == nil {
			m.Leaving, err = d.intval()
			m.Leaving--
		}
		msg = m
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknown, kind)
	}
	if err != nil {
		return nil, err
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

func (e *encoder) ints(vs []int) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.uvarint(uint64(v))
	}
}

func (e *encoder) config(c Config) {
	e.byte(byte(c.Scheme))
	e.uvarint(uint64(c.X))
	e.uvarint(uint64(c.Y))
	e.uvarint(c.Seed)
	e.bool(c.RSReplace)
	e.uvarint(uint64(c.Coordinators))
	e.bool(c.ZoneSpread)
}

type decoder struct {
	buf []byte
}

func (d *decoder) byteval() (byte, error) {
	if len(d.buf) < 1 {
		return 0, ErrTruncated
	}
	b := d.buf[0]
	d.buf = d.buf[1:]
	return b, nil
}

func (d *decoder) boolval() (bool, error) {
	b, err := d.byteval()
	if err != nil {
		return false, err
	}
	switch b {
	case 0:
		return false, nil
	case 1:
		return true, nil
	default:
		return false, ErrBadMessage
	}
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		return 0, ErrBadVarint
	}
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) intval() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt32 {
		return 0, ErrOversized
	}
	return int(v), nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", ErrOversized
	}
	if uint64(len(d.buf)) < n {
		return "", ErrTruncated
	}
	s := view(d.buf[:n])
	d.buf = d.buf[n:]
	return s, nil
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

// decodePlaces reads what encodePlaces wrote.
func decodePlaces[T Place | StoreBatch](d *decoder) ([]T, error) {
	n, err := d.batchLen()
	if err != nil || n == 0 {
		return nil, err
	}
	items := make([]T, 0, min(n, 1024))
	for i := 0; i < n && err == nil; i++ {
		var it Place
		it.Key, err = d.str()
		if err == nil {
			it.Config, err = d.config()
		}
		if err == nil {
			it.Entries, err = d.strs()
		}
		items = append(items, T(it))
	}
	return items, err
}

// batchLen reads and bounds the item count of a batch envelope.
func (d *decoder) batchLen() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > maxSliceLen {
		return 0, ErrOversized
	}
	return int(n), nil
}

func (d *decoder) bools() ([]bool, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSliceLen {
		return nil, ErrOversized
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]bool, 0, min(int(n), 1024))
	for i := uint64(0); i < n; i++ {
		v, err := d.boolval()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (d *decoder) uints() ([]uint64, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSliceLen {
		return nil, ErrOversized
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]uint64, 0, min(int(n), 1024))
	for i := uint64(0); i < n; i++ {
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (d *decoder) ints() ([]int, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSliceLen {
		return nil, ErrOversized
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]int, 0, min(int(n), 1024))
	for i := uint64(0); i < n; i++ {
		v, err := d.intval()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (d *decoder) strs() ([]string, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > maxSliceLen {
		return nil, ErrOversized
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, 0, min(int(n), 1024))
	for i := uint64(0); i < n; i++ {
		s, err := d.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (d *decoder) config() (Config, error) {
	var c Config
	b, err := d.byteval()
	if err != nil {
		return c, err
	}
	c.Scheme = Scheme(b)
	if c.X, err = d.intval(); err != nil {
		return c, err
	}
	if c.Y, err = d.intval(); err != nil {
		return c, err
	}
	if c.Seed, err = d.uvarint(); err != nil {
		return c, err
	}
	if c.RSReplace, err = d.boolval(); err != nil {
		return c, err
	}
	if c.Coordinators, err = d.intval(); err != nil {
		return c, err
	}
	if c.ZoneSpread, err = d.boolval(); err != nil {
		return c, err
	}
	return c, nil
}
