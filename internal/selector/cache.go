package selector

import (
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/stats"
)

// The routing cache's shape. Capacity is set in bytes, not keys: the
// table holds as many slots as the budget pays for.
const (
	// cacheBytes is the routing cache's memory budget: what the LRU of
	// keys it replaced (a list, a map, and per-key slices) occupied when
	// full, 4 096 keys at ~237 B each with the key strings excluded.
	cacheBytes = 4096 * 237
	// cacheWays is the number of slots in a set: keys whose hashes
	// collide on a set share its ways, least recently used evicted first.
	cacheWays = 8
	// cacheServersPerKey bounds how many answering servers are
	// remembered per key (the largest answers win).
	cacheServersPerKey = 4
	// negWidth bounds the server ids a slot can remember as negative: a
	// server at or beyond it that answers empty is not recorded.
	negWidth = 128
)

// cacheSlots is the largest power of two of slots that fits in
// cacheBytes; setShift maps a key hash's top bits to its set.
var (
	cacheSlots = 1 << (bits.Len(cacheBytes/uint(unsafe.Sizeof(slot{}))) - 1)
	setShift   = 64 - bits.Len(uint(cacheSlots/cacheWays-1))
)

// slot is one key's routes. It holds no pointer and no key string: a key
// is its 64-bit hash, so two keys whose hashes collide share routes, and
// the worst a collision does is reorder a lookup's probes.
type slot struct {
	hash uint64 // the key's keyHash; 0 marks an empty way
	// pos are the servers that answered the key, largest answer first
	// (server id ascending among equals); unused routes, entries 0,
	// trail.
	pos [cacheServersPerKey]route
	neg serverBits // servers that answered the key empty
}

// route is one server's last answer size for a key, saturated at
// math.MaxUint16 entries.
type route struct{ server, entries uint16 }

// before reports whether a sorts ahead of b in a slot's pos.
func (a route) before(b route) bool {
	return a.entries > b.entries || a.entries == b.entries && a.server < b.server
}

// serverBits is a set of server ids below negWidth.
type serverBits [negWidth / 64]uint64

func (b *serverBits) has(server int) bool {
	return server < negWidth && b[server/64]&(1<<(server%64)) != 0
}

func (b *serverBits) add(server int) {
	if server < negWidth {
		b[server/64] |= 1 << (server % 64)
	}
}

func (b *serverBits) remove(server int) {
	if server < negWidth {
		b[server/64] &^= 1 << (server % 64)
	}
}

// routeCache is the routing cache: a table of cacheSlots slots in sets
// of cacheWays, each set kept most recently used first with its empty
// ways at the back. The table is allocated by the first record, so a
// selector that never caches a route pays nothing. It is guarded by the
// owning Selector's mutex.
type routeCache struct {
	slots []slot
	used  int // slots holding a key
}

// keyHash is the 64-bit FNV-1a hash of key, finished as HashAssign
// finishes it with a SplitMix64 finalizer: raw FNV-1a's top bits, which
// pick the set, barely move when keys differ in their last bytes
// ("k1", "k2", ...). It is unseeded so that seeded runs replay; 0 is
// reserved for empty ways.
func keyHash(key string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return max(stats.Mix64(h), 1)
}

func (c *routeCache) len() int { return c.used }

// find returns the set of key hash h and the way holding h, or, with ok
// false, the set's first empty way (cacheWays when the set is full).
func (c *routeCache) find(h uint64) (set []slot, i int, ok bool) {
	set = c.slots[(h>>setShift)*cacheWays:][:cacheWays]
	for i = range set {
		if set[i].hash == h || set[i].hash == 0 {
			return set, i, set[i].hash == h
		}
	}
	return set, cacheWays, false
}

// touch returns the key's slot, moved to the front of its set. When the
// key is absent it returns nil, or with create set takes the front way
// for it, evicting the set's least recently used key if the set is full.
func (c *routeCache) touch(key string, create bool) *slot {
	if c.slots == nil {
		if !create {
			return nil
		}
		c.slots = make([]slot, cacheSlots)
	}
	h := keyHash(key)
	set, i, ok := c.find(h)
	if !ok {
		if !create {
			return nil
		}
		if i < cacheWays {
			c.used++
		} else {
			i-- // the back way is the least recently used
		}
		set[i] = slot{hash: h}
	}
	sl := set[i]
	copy(set[1:i+1], set[:i])
	set[0] = sl
	return &set[0]
}

// routable is the number of server ids a route can name: a slot
// records nothing from a server at or beyond it.
const routable = math.MaxUint16 + 1

// peek returns the key's slot, or nil, leaving its set's order alone.
func (c *routeCache) peek(key string) *slot {
	if c.slots == nil {
		return nil
	}
	set, i, ok := c.find(keyHash(key))
	if !ok {
		return nil
	}
	return &set[i]
}

// record notes that server answered the slot's key with entries
// entries; zero is a negative verdict. server must fit a route
// (routable).
func (sl *slot) record(server, entries int) {
	sl.dropPos(uint16(server))
	if entries <= 0 {
		sl.neg.add(server)
		return
	}
	sl.neg.remove(server)
	r := route{server: uint16(server), entries: uint16(min(entries, math.MaxUint16))}
	i := len(sl.pos) - 1
	if !r.before(sl.pos[i]) {
		return // smaller than every remembered answer
	}
	for ; i > 0 && r.before(sl.pos[i-1]); i-- {
		sl.pos[i] = sl.pos[i-1]
	}
	sl.pos[i] = r
}

// full reports whether the slot holds cacheServersPerKey routes, so
// that recording another one drops the smallest.
func (sl *slot) full() bool { return sl.pos[len(sl.pos)-1].entries != 0 }

// holds reports whether the slot holds an answer, positive or negative,
// from server.
func (sl *slot) holds(server int) bool {
	if sl.neg.has(server) {
		return true
	}
	for _, r := range sl.pos {
		if r.entries != 0 && int(r.server) == server {
			return true
		}
	}
	return false
}

// dropPos forgets server's answer, if the slot holds one.
func (sl *slot) dropPos(server uint16) {
	for i, r := range sl.pos {
		if r.entries != 0 && r.server == server {
			copy(sl.pos[i:], sl.pos[i+1:])
			sl.pos[len(sl.pos)-1] = route{}
			return
		}
	}
}

// empty reports whether the slot holds no route, positive or negative.
func (sl *slot) empty() bool {
	return sl.pos[0].entries == 0 && sl.neg == serverBits{}
}

func (c *routeCache) invalidate(key string) bool {
	if c.slots == nil {
		return false
	}
	set, i, ok := c.find(keyHash(key))
	if !ok {
		return false
	}
	copy(set[i:], set[i+1:])
	set[cacheWays-1] = slot{}
	c.used--
	return true
}

func (c *routeCache) invalidateNegatives(key string) bool {
	sl := c.touch(key, false)
	if sl == nil || sl.neg == (serverBits{}) {
		return false
	}
	sl.neg = serverBits{}
	return true
}
