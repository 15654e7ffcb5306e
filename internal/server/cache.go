package server

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/seio"
)

// cacheKey identifies a solve result: the instance name at an exact store
// version (which pins the content — versions never repeat for a name), the
// algorithm, k, the RAND seed (zero for deterministic algorithms so they
// share entries across client seeds) and a fingerprint of the scorer
// options. Identical queries against an unmutated instance are O(1).
type cacheKey struct {
	name      string
	version   uint64
	algorithm string
	k         int
	seed      uint64
	opts      uint64
}

// optsFingerprint hashes the Section 2.1 extension vectors into the cache
// key. Length markers separate the two vectors so ambiguous concatenations
// cannot collide.
func optsFingerprint(userWeights, eventCosts []float64) uint64 {
	if len(userWeights) == 0 && len(eventCosts) == 0 {
		return 0
	}
	h := fnv.New64a()
	var b [8]byte
	wr := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	wr(uint64(len(userWeights)))
	for _, v := range userWeights {
		wr(math.Float64bits(v))
	}
	wr(uint64(len(eventCosts)))
	for _, v := range eventCosts {
		wr(math.Float64bits(v))
	}
	return h.Sum64()
}

// seedKeyFor collapses the client seed for deterministic algorithms so they
// share cache entries (and job cells hit the same entries as /solve).
func seedKeyFor(algorithm string, seed uint64) uint64 {
	if algorithm == "RAND" {
		return seed
	}
	return 0
}

type cacheEntry struct {
	key  cacheKey
	resp seio.SolveResponse
}

// Cache is a bounded LRU result cache. Entries are immutable SolveResponses;
// mutation and deletion of an instance invalidate exactly that instance's
// entries (all versions), leaving the rest of the cache warm.
//
// Two structural guards close the gaps the LRU alone leaves open:
//
//   - byName indexes entries per instance, so InvalidateInstance touches
//     only the named instance's entries instead of scanning the whole list
//     under mu (a PATCH of one instance must not stall Get/Put on every
//     other).
//   - current, when set, is consulted UNDER mu on every insert: a solve
//     that snapshotted version N can reach Put after a PATCH published N+1
//     and already swept the cache — without the check its entry would
//     re-insert dead content that squats in the LRU. Checking inside the
//     critical section makes the race airtight: an invalidation either ran
//     before the check (the version comparison fails) or runs after the
//     insert (and removes it).
type Cache struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // front = most recently used
	items  map[cacheKey]*list.Element
	byName map[string]map[cacheKey]*list.Element
	// current returns the live store version of a name (false = not live).
	current func(name string) (uint64, bool)

	hits          atomic.Int64
	misses        atomic.Int64
	invalidations atomic.Int64
	staleDrops    atomic.Int64
}

// NewCache returns an LRU cache holding at most max entries (min 1).
func NewCache(max int) *Cache {
	if max < 1 {
		max = 1
	}
	return &Cache{
		max:    max,
		ll:     list.New(),
		items:  make(map[cacheKey]*list.Element),
		byName: make(map[string]map[cacheKey]*list.Element),
	}
}

// SetCurrent installs the live-version oracle consulted by Put. Install
// before traffic (sesd wires the store's currentVersion in New); a nil
// oracle disables the staleness guard (unit tests of pure LRU behavior).
func (c *Cache) SetCurrent(fn func(name string) (uint64, bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.current = fn
}

// removeLocked unlinks an element from the list and both indexes.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, e.key)
	if set := c.byName[e.key.name]; set != nil {
		delete(set, e.key)
		if len(set) == 0 {
			delete(c.byName, e.key.name)
		}
	}
}

// Get returns the cached response for key, marking it most recently used.
func (c *Cache) Get(key cacheKey) (seio.SolveResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Add(1)
		return seio.SolveResponse{}, false
	}
	c.hits.Add(1)
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).resp, true
}

// Put inserts the response, evicting the least recently used entry when
// full. Inserts for a version that is no longer the name's live store
// version are dropped (see Cache doc); the store is consulted under c.mu,
// which is safe because no store write path calls back into the cache while
// holding store locks.
func (c *Cache) Put(key cacheKey, resp seio.SolveResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.current != nil {
		if v, live := c.current(key.name); !live || v != key.version {
			c.staleDrops.Add(1)
			return
		}
	}
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).resp = resp
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, resp: resp})
	c.items[key] = el
	set := c.byName[key.name]
	if set == nil {
		set = make(map[cacheKey]*list.Element)
		c.byName[key.name] = set
	}
	set[key] = el
	for c.ll.Len() > c.max {
		c.removeLocked(c.ll.Back())
	}
}

// InvalidateInstance drops every entry of the named instance and returns how
// many were removed. Cost is proportional to that instance's entry count
// alone (per-name index), not the cache size.
func (c *Cache) InvalidateInstance(name string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	set := c.byName[name]
	n := len(set)
	for _, el := range set {
		e := el.Value.(*cacheEntry)
		c.ll.Remove(el)
		delete(c.items, e.key)
	}
	delete(c.byName, name)
	c.invalidations.Add(int64(n))
	return n
}

// dump copies every entry in LRU→MRU order for the compactor: replaying the
// dump through Put in this order reproduces the recency ordering, so the
// recovered cache evicts in the same sequence the live one would have.
func (c *Cache) dump() []cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]cacheEntry, 0, c.ll.Len())
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		out = append(out, cacheEntry{key: e.key, resp: e.resp})
	}
	return out
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
