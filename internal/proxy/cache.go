package proxy

import (
	"container/list"
	"slices"
	"time"
)

// cacheEntry is one cached partial-lookup answer for a (key, t) pair.
type cacheEntry struct {
	fk      flightKey
	entries []string
	expires time.Time
}

// resultCache is the bounded LRU+TTL answer cache. It is guarded by
// the owning Proxy's mutex. Keys index a per-key map of t variants so
// an update reaches every cached answer size for its key at once. A
// cached entries slice is shared with replies being encoded outside
// that mutex and with a flight's followers: it is replaced, never
// written to.
type resultCache struct {
	max   int
	lru   *list.List // of *cacheEntry, front = most recent
	byKey map[string]map[int]*list.Element
}

func newResultCache(max int) *resultCache {
	return &resultCache{
		max:   max,
		lru:   list.New(),
		byKey: make(map[string]map[int]*list.Element),
	}
}

func (c *resultCache) len() int { return c.lru.Len() }

// get returns the cached answer for fk if present and fresh. expired
// reports that an entry existed but had outlived its TTL (it is
// dropped; the caller counts it separately from a plain miss).
func (c *resultCache) get(fk flightKey, now time.Time) (entries []string, ok, expired bool) {
	el := c.byKey[fk.key][fk.t]
	if el == nil {
		return nil, false, false
	}
	ce := el.Value.(*cacheEntry)
	if now.After(ce.expires) {
		c.remove(el)
		return nil, false, true
	}
	c.lru.MoveToFront(el)
	return ce.entries, true, false
}

// put stores an answer, replacing any existing (key, t) entry and
// evicting the least-recently-used answers beyond the bound.
func (c *resultCache) put(fk flightKey, entries []string, expires time.Time) {
	if el := c.byKey[fk.key][fk.t]; el != nil {
		ce := el.Value.(*cacheEntry)
		ce.entries, ce.expires = entries, expires
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&cacheEntry{fk: fk, entries: entries, expires: expires})
	byT := c.byKey[fk.key]
	if byT == nil {
		byT = make(map[int]*list.Element)
		c.byKey[fk.key] = byT
	}
	byT[fk.t] = el
	for c.lru.Len() > c.max {
		c.remove(c.lru.Back())
	}
}

// dropKey drops every t variant cached for key (a place rewrote the
// key's entries wholesale), returning how many answers were removed.
func (c *resultCache) dropKey(key string) int {
	byT := c.byKey[key]
	for _, el := range byT {
		c.lru.Remove(el)
	}
	delete(c.byKey, key)
	return len(byT)
}

// dropThin drops key's thin answers — fewer entries than their t,
// because the key held fewer when it was probed — which an add can make
// satisfiable; an answer that has its t entries still has t live ones
// after an add.
func (c *resultCache) dropThin(key string) (dropped int) {
	for _, el := range c.byKey[key] {
		if ce := el.Value.(*cacheEntry); len(ce.entries) < ce.fk.t {
			c.remove(el)
			dropped++
		}
	}
	return dropped
}

// removeEntry takes a deleted entry out of key's answers that hold it:
// the rest of such an answer is still live, so it stays (patched, as a
// new slice) unless the removal leaves it thin, and then it is dropped.
func (c *resultCache) removeEntry(key, entry string) (patched, dropped int) {
	for _, el := range c.byKey[key] {
		ce := el.Value.(*cacheEntry)
		if !slices.Contains(ce.entries, entry) {
			continue
		}
		rest := slices.DeleteFunc(slices.Clone(ce.entries), func(e string) bool { return e == entry })
		if len(rest) < ce.fk.t {
			c.remove(el)
			dropped++
			continue
		}
		ce.entries = rest
		patched++
	}
	return patched, dropped
}

// flush empties the cache.
func (c *resultCache) flush() {
	c.lru.Init()
	c.byKey = make(map[string]map[int]*list.Element)
}

// remove unlinks one element from the list and both index levels.
func (c *resultCache) remove(el *list.Element) {
	ce := c.lru.Remove(el).(*cacheEntry)
	byT := c.byKey[ce.fk.key]
	delete(byT, ce.fk.t)
	if len(byT) == 0 {
		delete(c.byKey, ce.fk.key)
	}
}
