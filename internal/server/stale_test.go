package server

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/seio"
)

// The result cache must refuse inserts whose version is no longer the live
// store version: a solve that snapshotted version N and raced past the PATCH
// to N+1 would otherwise re-insert an entry the invalidation already swept.
func TestCachePutStaleDrop(t *testing.T) {
	cache := NewCache(8)
	var cur atomic.Uint64
	cur.Store(2)
	cache.SetCurrent(func(name string) (uint64, bool) {
		if name == "gone" {
			return 0, false
		}
		return cur.Load(), true
	})

	mk := func(name string, v uint64) cacheKey {
		return cacheKey{name: name, version: v, algorithm: "HOR-I", k: 3}
	}
	cache.Put(mk("x", 1), seio.SolveResponse{K: 1}) // stale: live is 2
	cache.Put(mk("x", 3), seio.SolveResponse{K: 3}) // stale: from the future
	cache.Put(mk("gone", 1), seio.SolveResponse{})  // deleted instance
	if n := cache.Len(); n != 0 {
		t.Fatalf("stale inserts cached %d entries", n)
	}
	cache.Put(mk("x", 2), seio.SolveResponse{K: 2}) // live: kept
	if _, ok := cache.Get(mk("x", 2)); !ok {
		t.Fatal("live-version insert was dropped")
	}
	if st := cache.Stats(); st.StaleDrops != 3 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 3 stale drops and 1 entry", st)
	}
}

// InvalidateInstance must remove exactly the named instance's entries (the
// per-name index) and leave every other instance warm.
func TestCacheInvalidateScoped(t *testing.T) {
	cache := NewCache(64)
	for i := 0; i < 4; i++ {
		for _, name := range []string{"a", "b", "c"} {
			cache.Put(cacheKey{name: name, version: 1, algorithm: "HOR", k: i}, seio.SolveResponse{K: i})
		}
	}
	if n := cache.InvalidateInstance("b"); n != 4 {
		t.Fatalf("invalidated %d entries of b, want 4", n)
	}
	if n := cache.Len(); n != 8 {
		t.Fatalf("cache holds %d entries after scoped invalidation, want 8", n)
	}
	for i := 0; i < 4; i++ {
		if _, ok := cache.Get(cacheKey{name: "a", version: 1, algorithm: "HOR", k: i}); !ok {
			t.Fatalf("entry of a lost to b's invalidation")
		}
		if _, ok := cache.Get(cacheKey{name: "b", version: 1, algorithm: "HOR", k: i}); ok {
			t.Fatalf("entry of b survived its invalidation")
		}
	}
	if n := cache.InvalidateInstance("b"); n != 0 {
		t.Fatalf("second invalidation removed %d", n)
	}
	// Eviction must also maintain the name index: filling a tiny cache and
	// invalidating must not panic or remove the wrong entries.
	small := NewCache(2)
	for i := 0; i < 5; i++ {
		small.Put(cacheKey{name: "x", version: 1, k: i}, seio.SolveResponse{})
	}
	if n := small.InvalidateInstance("x"); n != 2 {
		t.Fatalf("small cache invalidated %d, want 2", n)
	}
}

// Concurrent PATCH-style version bumps + invalidations against concurrent
// Puts of the version each writer last observed. Invariant at every quiet
// point: the cache only ever holds entries of the live version.
func TestCacheInvalidationRace(t *testing.T) {
	cache := NewCache(256)
	var cur atomic.Uint64
	cur.Store(1)
	cache.SetCurrent(func(string) (uint64, bool) { return cur.Load(), true })

	const writers = 4
	const rounds = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := cur.Load() // snapshot, may be stale by Put time
				key := cacheKey{name: "x", version: v, algorithm: "ALG", k: w*1000 + i%17}
				cache.Put(key, seio.SolveResponse{K: key.k})
				cache.Get(key)
			}
		}(w)
	}
	for r := 0; r < rounds; r++ {
		cur.Add(1) // publish the new version first, like Store.Mutate
		cache.InvalidateInstance("x")
	}
	close(stop)
	wg.Wait()

	// Everything still cached must be the final live version: any stale Put
	// either lost the version check or was swept by a later invalidation.
	final := cur.Load()
	cache.mu.Lock()
	for key := range cache.items {
		if key.version != final {
			cache.mu.Unlock()
			t.Fatalf("dead version %d squatting in cache (live %d)", key.version, final)
		}
	}
	if len(cache.items) != cache.ll.Len() {
		cache.mu.Unlock()
		t.Fatal("items index and list diverged")
	}
	for name, set := range cache.byName {
		for key := range set {
			if key.name != name {
				cache.mu.Unlock()
				t.Fatalf("byName[%q] holds key of %q", name, key.name)
			}
		}
	}
	cache.mu.Unlock()
	if cache.Stats().StaleDrops == 0 {
		t.Log("race produced no stale drops this run (timing-dependent)")
	}
}

// Invalidating one instance must not pay for the rest of the cache: the
// per-name index makes the 1-entry invalidation O(1) even with 100k
// bystander entries (the old implementation scanned the whole list under
// c.mu). Run with -bench InvalidateInstance.
func BenchmarkCacheInvalidateInstance(b *testing.B) {
	const bystanders = 100_000
	cache := NewCache(bystanders + 2)
	for i := 0; i < bystanders; i++ {
		cache.Put(cacheKey{name: fmt.Sprintf("other-%d", i%1000), version: 1, k: i}, seio.SolveResponse{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cache.Put(cacheKey{name: "hot", version: 1, k: 0}, seio.SolveResponse{})
		cache.InvalidateInstance("hot")
	}
}

// The engine cache must apply the same stale-insert rule: an engine built
// for a version that lost a race with a mutation is handed out privately and
// never cached.
func TestEngineCacheStaleDrop(t *testing.T) {
	inst := engineTestInstance(t)
	ec := newEngineCache(0, 4)
	defer ec.close()
	var cur atomic.Uint64
	cur.Store(1)
	ec.setCurrent(func(string) (uint64, bool) { return cur.Load(), true })

	en, rel, _, err := ec.acquire(engineKey{name: "a", version: 1}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if st := ec.stats(); st.Engines != 1 || st.StaleDrops != 0 {
		t.Fatalf("live acquire: %+v", st)
	}

	// The store moves on; an acquire still pinned to the dead version gets a
	// working private engine but must not (re-)enter the cache.
	cur.Store(2)
	ec.invalidate("a")
	en2, rel2, warm2, err := ec.acquire(engineKey{name: "a", version: 1}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if en2 == en {
		t.Fatal("dead engine resurrected")
	}
	if warm2 {
		t.Error("cold private build reported as reused")
	}
	s := core.NewSchedule(inst)
	_ = en2.Score(s, 0, 0)
	rel2()
	if st := ec.stats(); st.Engines != 0 || st.StaleDrops != 1 {
		t.Fatalf("stale acquire: %+v", st)
	}
}

// retire must keep small-delta engines warm (consumed by the next version's
// acquire via a delta rebuild) and drop too-dirty ones.
func TestEngineCacheRetireWarm(t *testing.T) {
	inst := engineTestInstance(t)
	ec := newEngineCache(0, 4)
	defer ec.close()

	_, rel, _, err := ec.acquire(engineKey{name: "a", version: 1}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel()
	ec.retire("a", 2, core.ScorerDelta{Events: []int{0}})
	if n := ec.stats().Engines; n != 1 {
		t.Fatalf("retire dropped a warmable engine (engines=%d)", n)
	}

	_, rel2, warm, err := ec.acquire(engineKey{name: "a", version: 2}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel2()
	if !warm {
		t.Error("warm delta rebuild not reported as reused")
	}
	st := ec.stats()
	if st.WarmBuilds != 1 {
		t.Fatalf("acquire after retire: %+v, want 1 warm build", st)
	}
	if st.Engines != 1 {
		t.Fatalf("warm source not superseded: %d engines cached", st.Engines)
	}
	if _, ok := ec.m[engineKey{name: "a", version: 1}]; ok {
		t.Fatal("superseded version-1 entry still mapped")
	}

	// A mutation touching most of the instance makes a warm rebuild pointless:
	// the entry is dropped like invalidate would.
	big := make([]int, inst.NumEvents())
	for i := range big {
		big[i] = i
	}
	ec.retire("a", 3, core.ScorerDelta{Events: big})
	if n := ec.stats().Engines; n != 0 {
		t.Fatalf("too-dirty retire kept %d engines", n)
	}

	// A retire that cannot reach the new version (missed intermediate
	// mutation) must also kill the entry rather than warm-start wrongly.
	_, rel3, _, err := ec.acquire(engineKey{name: "a", version: 5}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel3()
	ec.retire("a", 9, core.ScorerDelta{Events: []int{1}})
	if n := ec.stats().Engines; n != 0 {
		t.Fatalf("gap retire kept %d engines", n)
	}
}

// Hammer acquire / retire / invalidate concurrently under -race with a
// moving live version. The cache must stay consistent (no panics, bounded
// size, working engines at the final version).
func TestEngineCacheRace(t *testing.T) {
	inst := engineTestInstance(t)
	ec := newEngineCache(0, 3)
	defer ec.close()
	var cur atomic.Uint64
	cur.Store(1)
	ec.setCurrent(func(string) (uint64, bool) { return cur.Load(), true })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := core.NewSchedule(inst)
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := cur.Load()
				en, rel, _, err := ec.acquire(engineKey{name: "a", version: v}, inst, core.ScorerOptions{})
				if err != nil {
					t.Error(err)
					return
				}
				_ = en.Score(s, 0, 0)
				rel()
			}
		}()
	}
	for r := 0; r < 60; r++ {
		v := cur.Add(1)
		if r%10 == 9 {
			ec.invalidate("a")
		} else {
			ec.retire("a", v, core.ScorerDelta{Events: []int{r % inst.NumEvents()}})
		}
	}
	close(stop)
	wg.Wait()

	final := cur.Load()
	en, rel, _, err := ec.acquire(engineKey{name: "a", version: final}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSchedule(inst)
	_ = en.Score(s, 0, 0)
	rel()
	if n := ec.stats().Engines; n > 3 {
		t.Fatalf("cache grew past capacity: %d", n)
	}
}

// End-to-end PATCH vs solve race through the HTTP API: whatever interleaving
// happens, the result cache must never end up holding a dead version.
func TestConcurrentMutateAndSolve(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 3, Queue: 64})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/fest", testInstanceJSON(t, 4, 60, 3), http.StatusCreated, nil)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var out seio.SolveResponse
				do(t, c, "POST", ts.URL+"/instances/fest/solve",
					jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 2 + (g+i)%3}), http.StatusOK, &out)
			}
		}(g)
	}
	for i := 0; i < 25; i++ {
		do(t, c, "PATCH", ts.URL+"/instances/fest",
			jsonBody(t, seio.MutateRequest{Interest: []seio.CellUpdate{{User: i % 60, Index: i % 12, Value: 0.5}}}),
			http.StatusOK, nil)
	}
	close(stop)
	wg.Wait()

	_, info, err := srv.store.Get("fest")
	if err != nil {
		t.Fatal(err)
	}
	srv.cache.mu.Lock()
	for key := range srv.cache.items {
		if key.version != info.Version {
			srv.cache.mu.Unlock()
			t.Fatalf("result cache holds dead version %d (live %d)", key.version, info.Version)
		}
	}
	srv.cache.mu.Unlock()
	// An engine of an older version stays cached as a warm source once
	// retire has advanced its warmTo to the live version; only an entry that
	// can reach neither is dead.
	srv.engines.mu.Lock()
	for key, e := range srv.engines.m {
		if key.version != info.Version && e.warmTo != info.Version {
			srv.engines.mu.Unlock()
			t.Fatalf("engine cache holds dead version %d (warm to %d, live %d)", key.version, e.warmTo, info.Version)
		}
	}
	srv.engines.mu.Unlock()
}
