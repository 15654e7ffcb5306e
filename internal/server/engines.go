package server

import (
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/score"
)

// engineKey identifies one scoring engine: an instance version with one set
// of scorer extensions. Every solve, extend and sweep cell of the same
// version (and the same weights/costs fingerprint) shares one engine, so the
// O(|U|·|C|) competition-row precompute and the engine's worker set are paid
// once per version instead of once per request.
type engineKey struct {
	name    string
	version uint64
	opts    uint64
}

// engineEntry is one cached engine with a refcount. Eviction (or cache close)
// marks the entry dead; the engine's workers are released when the last
// in-flight user drops its reference.
//
// A live entry is also a WARM SOURCE: when its instance is mutated, retire
// accumulates the mutation's ScorerDelta here instead of dropping the
// engine, and a later acquire for the new version rebuilds from it via
// score.NewFromPrevious — only the dirty accumulators, carrying the clean
// prefix memo across. warmTo tracks how far the accumulated delta
// reaches: the entry can warm-start exactly the version warmTo names.
type engineEntry struct {
	key  engineKey
	en   *score.Engine
	refs int
	dead bool
	used int64 // LRU tick of the last acquire
	// warmTo is the newest store version delta describes the path to;
	// equal to key.version until the first retire.
	warmTo uint64
	// delta is the union of every mutation from key.version to warmTo.
	delta core.ScorerDelta
}

// engineCache is a small refcounted LRU of scoring engines. Engines hold
// worker goroutines and O(|T|·|U|) precompute, so the cache is bounded like
// the result cache but must not close an engine somebody is mid-solve on —
// hence refcounts instead of the result cache's value semantics.
type engineCache struct {
	workers  int
	capacity int
	// sink, when set (by the server before traffic), is attached to every
	// engine this cache builds so batched scoring reports into the shared
	// score metrics. Nil leaves engines uninstrumented.
	sink *score.Sink

	mu     sync.Mutex
	m      map[engineKey]*engineEntry
	tick   int64
	closed bool
	// current returns the live store version of a name (false = not live).
	// Consulted under mu before caching a freshly built engine: an insert
	// for a superseded version would squat in the LRU past the invalidation
	// that should have covered it, so it is handed out privately instead.
	current func(name string) (uint64, bool)

	hits       atomic.Int64
	misses     atomic.Int64
	warmBuilds atomic.Int64
	staleDrops atomic.Int64
}

func newEngineCache(workers, capacity int) *engineCache {
	if capacity < 1 {
		capacity = 1
	}
	return &engineCache{workers: workers, capacity: capacity, m: make(map[engineKey]*engineEntry)}
}

// setCurrent installs the live-version oracle consulted before caching a
// built engine. Install before traffic; nil disables the staleness guard.
func (ec *engineCache) setCurrent(fn func(name string) (uint64, bool)) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ec.current = fn
}

// acquire returns the engine for the key, building it on a miss, plus a
// release func the caller must invoke exactly once when its run is done, and
// reused — true when the engine (or its precompute, via a warm delta
// rebuild) came from the cache rather than a cold build; the resolve metrics
// split warm/fallback on it. opts carries the request's extensions; the
// cache imposes its worker count.
//
// A miss prefers a WARM build: if a retired predecessor of the same name and
// options can reach exactly key.version (warmTo matches), the new engine is
// built from it via score.NewFromPrevious — reusing the clean precompute and
// prefix memo, bit-identical to a cold build — and the predecessor,
// now fully superseded, is dropped. Any warm-path error falls back to a
// cold build.
func (ec *engineCache) acquire(key engineKey, inst *core.Instance, opts core.ScorerOptions) (en *score.Engine, release func(), reused bool, err error) {
	opts.Workers = ec.workers
	ec.mu.Lock()
	if e, ok := ec.m[key]; ok && !e.dead {
		e.refs++
		ec.tick++
		e.used = ec.tick
		ec.mu.Unlock()
		ec.hits.Add(1)
		return e.en, ec.releaseFunc(e), true, nil
	}
	closed := ec.closed
	// Scan for the best warm source: a live retired entry of the same name
	// and option fingerprint whose accumulated delta lands on key.version.
	// Pin it (refs) so eviction cannot close it mid-build.
	var src *engineEntry
	var srcDelta core.ScorerDelta
	if !closed {
		for _, e := range ec.m {
			if e.dead || e.key.name != key.name || e.key.opts != key.opts {
				continue
			}
			if e.key.version >= key.version || e.warmTo != key.version {
				continue
			}
			if src == nil || e.key.version > src.key.version {
				src = e
			}
		}
		if src != nil {
			src.refs++
			srcDelta = src.delta
		}
	}
	ec.mu.Unlock()
	ec.misses.Add(1)

	// Build outside the lock: engine construction is O(|U|·|C|) and must not
	// stall acquires of other instances.
	warm := false
	if src != nil {
		if en, err = score.NewFromPrevious(src.en, inst, opts, srcDelta); err == nil {
			warm = true
			ec.warmBuilds.Add(1)
		}
	}
	releaseSrc := func() {}
	if src != nil {
		releaseSrc = ec.releaseFunc(src)
	}
	if en == nil {
		if en, err = score.New(inst, opts); err != nil {
			releaseSrc()
			return nil, nil, false, err
		}
	}
	en.SetSink(ec.sink)
	if closed {
		// Shutdown straggler: hand out a private engine, never cache it.
		releaseSrc()
		return en, en.Close, warm, nil
	}

	ec.mu.Lock()
	if ec.closed {
		// close() ran while we were building: do not insert into a cache
		// nobody will close again — hand the engine out privately.
		ec.mu.Unlock()
		releaseSrc()
		return en, en.Close, warm, nil
	}
	if e, ok := ec.m[key]; ok && !e.dead {
		// Another request built the same engine first; use the shared one.
		e.refs++
		ec.tick++
		e.used = ec.tick
		ec.mu.Unlock()
		en.Close()
		releaseSrc()
		return e.en, ec.releaseFunc(e), true, nil
	}
	if ec.current != nil {
		if v, live := ec.current(key.name); !live || v != key.version {
			// The version this engine was built for is no longer live: a
			// mutation (or delete) raced the build, and its invalidation
			// may already have swept the cache. Caching now would re-insert
			// a dead version; serve the caller privately instead.
			ec.staleDrops.Add(1)
			ec.mu.Unlock()
			releaseSrc()
			return en, en.Close, warm, nil
		}
	}
	ec.tick++
	e := &engineEntry{key: key, en: en, refs: 1, used: ec.tick, warmTo: key.version}
	ec.m[key] = e
	if warm && src != nil && !src.dead {
		// The fresh entry answers every request the source still could;
		// drop the source now instead of waiting for LRU pressure. Its
		// engine closes when the last holder (including our pin) releases.
		delete(ec.m, src.key)
		src.dead = true
	}
	ec.evictLocked()
	ec.mu.Unlock()
	releaseSrc()
	return en, ec.releaseFunc(e), warm, nil
}

// retire records a mutation of name to newVer: instead of dropping the
// name's engines, each live entry accumulates the mutation's delta and
// advances warmTo, staying available as a warm source for the new version.
// Entries whose accumulated delta can no longer reach newVer (a missed
// retire — cannot happen through the store's serialized mutation pipeline,
// but guarded anyway) or whose dirtiness approaches the instance size (a
// warm rebuild would approach cold cost while the stale memo pins memory)
// are dropped like invalidate would.
func (ec *engineCache) retire(name string, newVer uint64, d core.ScorerDelta) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	for k, e := range ec.m {
		if k.name != name || e.dead {
			continue
		}
		kill := e.warmTo+1 != newVer
		var merged core.ScorerDelta
		if !kill {
			merged = e.delta.Merge(d)
			inst := e.en.Instance()
			kill = 2*len(merged.Events) > inst.NumEvents() ||
				2*(len(merged.CompIntervals)+len(merged.ActIntervals)) > inst.NumIntervals()
		}
		if kill {
			delete(ec.m, k)
			e.dead = true
			if e.refs == 0 {
				e.en.Close()
			}
			continue
		}
		e.delta = merged
		e.warmTo = newVer
	}
}

// releaseFunc builds the idempotent reference drop for an entry.
func (ec *engineCache) releaseFunc(e *engineEntry) func() {
	var once sync.Once
	return func() {
		once.Do(func() {
			ec.mu.Lock()
			e.refs--
			stop := e.dead && e.refs == 0
			ec.mu.Unlock()
			if stop {
				e.en.Close()
			}
		})
	}
}

// evictLocked trims the cache to capacity, least-recently-acquired first.
// Busy engines are unmapped but keep running until their last user releases.
// Callers hold ec.mu.
func (ec *engineCache) evictLocked() {
	for len(ec.m) > ec.capacity {
		var victim engineKey
		var oldest int64
		found := false
		for k, e := range ec.m {
			if !found || e.used < oldest {
				victim, oldest, found = k, e.used, true
			}
		}
		e := ec.m[victim]
		delete(ec.m, victim)
		e.dead = true
		if e.refs == 0 {
			e.en.Close()
		}
	}
}

// invalidate drops every cached engine of the named instance (all versions
// and option fingerprints), e.g. when the instance is deleted. In-flight
// runs keep their engine until they release it.
func (ec *engineCache) invalidate(name string) {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	for k, e := range ec.m {
		if k.name == name {
			delete(ec.m, k)
			e.dead = true
			if e.refs == 0 {
				e.en.Close()
			}
		}
	}
}

// close marks the cache closed and releases every idle engine. Engines still
// referenced stop when their runs release them; later acquires get private,
// uncached engines.
func (ec *engineCache) close() {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	ec.closed = true
	for k, e := range ec.m {
		delete(ec.m, k)
		e.dead = true
		if e.refs == 0 {
			e.en.Close()
		}
	}
}

// EngineCacheStats is the /stats view of the engine cache.
type EngineCacheStats struct {
	// Workers is the per-engine worker count (sesd -parallel; 1 = sequential
	// scoring).
	Workers int `json:"workers"`
	// Engines is the number of currently cached engines.
	Engines int `json:"engines"`
	// Hits and Misses count acquire outcomes; a high hit rate means solves
	// are reusing the per-version precompute and worker sets.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// WarmBuilds counts misses answered by a delta-aware rebuild from a
	// retired predecessor instead of a cold O(|U|·|C|) precompute.
	WarmBuilds int64 `json:"warm_builds,omitempty"`
	// StaleDrops counts built engines served privately because their
	// version lost a race with a mutation or deletion.
	StaleDrops int64 `json:"stale_drops,omitempty"`
}

// len reports the number of currently cached engines (for the metrics gauge).
func (ec *engineCache) len() int {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	return len(ec.m)
}

// memoCells sums the prefix-memo cells of the cached engines (for the
// metrics gauge).
func (ec *engineCache) memoCells() int64 {
	ec.mu.Lock()
	defer ec.mu.Unlock()
	var n int64
	for _, e := range ec.m {
		n += e.en.MemoCells()
	}
	return n
}

// stats samples the cache counters.
func (ec *engineCache) stats() EngineCacheStats {
	ec.mu.Lock()
	n := len(ec.m)
	workers := ec.workers
	ec.mu.Unlock()
	if workers < 1 {
		workers = 1
	}
	return EngineCacheStats{
		Workers:    workers,
		Engines:    n,
		Hits:       ec.hits.Load(),
		Misses:     ec.misses.Load(),
		WarmBuilds: ec.warmBuilds.Load(),
		StaleDrops: ec.staleDrops.Load(),
	}
}
