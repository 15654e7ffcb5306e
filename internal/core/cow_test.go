package core

import (
	"runtime"
	"sync"
	"testing"
)

// TestDigestGoldens pins digest values computed before the sparse digest
// moved to per-column hashes: the dense stream must stay byte-identical, and
// LegacySparseDigest must reproduce the old sparse value that WAL replay
// accepts.
func TestDigestGoldens(t *testing.T) {
	if got, want := snapTestInstance(t).Digest(), "e794f0534df96c6a2f0aec56f81e5a66992d81aa816e55578111f1cbf7e8d05e"; got != want {
		t.Errorf("dense digest %s, want %s", got, want)
	}
	dense, sparse := buildPair(t, 11, 7, 4, 5, 60, 0.4)
	if got, want := dense.Digest(), "164b776ed9e549f5be5517b86ed9eec2518074feb1b9a3479da24548fb5e396a"; got != want {
		t.Errorf("dense digest %s, want %s", got, want)
	}
	if _, ok := dense.LegacySparseDigest(); ok {
		t.Error("dense instance reports a legacy sparse digest")
	}
	v1, ok := sparse.LegacySparseDigest()
	if want := "3ba12e9ab3a03121b3b173f9da57a3618670d61f5bcba3810b82fb2e2fbf83ae"; !ok || v1 != want {
		t.Errorf("legacy sparse digest %s (ok=%v), want %s", v1, ok, want)
	}
	if sparse.Digest() == v1 {
		t.Error("sparse digest did not change tag")
	}
}

// TestSnapshotClonesOnlyWrittenColumns: after a Snapshot, a write clones
// only the column or interval it touches, and AddCompeting appends without
// cloning any existing column.
func TestSnapshotClonesOnlyWrittenColumns(t *testing.T) {
	_, orig := buildPair(t, 5, 6, 4, 3, 50, 0.5)
	next := orig.Snapshot()
	next.SetInterest(7, 2, 0.9)
	next.SetActivity(3, 1, 0.1)
	if err := next.AddCompeting(Competing{Interval: 0}, make([]float32, next.NumUsers())); err != nil {
		t.Fatal(err)
	}
	for h := range orig.sparse {
		shared := &next.sparse[h].Users[0] == &orig.sparse[h].Users[0]
		if shared == (h == 2) {
			t.Errorf("column %d: shared=%v", h, shared)
		}
		if (next.colSum[h] == orig.colSum[h]) == (h == 2) {
			t.Errorf("column %d: hash cell shared=%v", h, next.colSum[h] == orig.colSum[h])
		}
	}
	for tt := range orig.activity {
		if shared := &next.activity[tt][0] == &orig.activity[tt][0]; shared == (tt == 1) {
			t.Errorf("interval %d: shared=%v", tt, shared)
		}
	}
	if len(orig.sparse) != 9 || len(next.sparse) != 10 || len(orig.colSum) != 9 {
		t.Fatalf("column counts: orig %d, next %d", len(orig.sparse), len(next.sparse))
	}
}

// TestSparseMutationAllocations bounds what a store-style mutation of a
// sparse instance allocates: Snapshot, a 2-cell SetInterest and Digest must
// allocate under 1% of the instance's nonzero bytes. Copying the interest
// columns, or re-hashing all of them, allocates more than 100%.
func TestSparseMutationAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 20k-user instance")
	}
	_, inst := buildPair(t, 3, 500, 8, 20, 20000, 0.2)
	inst.Digest()
	nnzBytes := inst.InterestNonzeros() * 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	next := inst.Snapshot()
	next.SetInterest(123, 17, 0.5)
	next.SetInterest(19000, 401, 0.25)
	d := next.Digest()
	runtime.ReadMemStats(&after)
	alloc := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("mutation allocated %d bytes for %d nonzero bytes (%.3f%%)", alloc, nnzBytes, 100*float64(alloc)/float64(nnzBytes))
	if alloc*100 >= nnzBytes {
		t.Errorf("mutation allocated %d bytes, want under 1%% of %d nonzero bytes", alloc, nnzBytes)
	}
	if d == inst.Digest() {
		t.Error("mutation did not change the digest")
	}
}

// TestConcurrentDigestSharedCells runs Digest concurrently on an origin, its
// snapshot and a successor that keeps mutating and digesting: all three
// share hash cells until the successor clones what it writes. Run under
// -race, it checks the cell fill is race-free; it also checks the digests
// of the two frozen instances never move.
func TestConcurrentDigestSharedCells(t *testing.T) {
	_, origin := buildPair(t, 9, 12, 5, 4, 300, 0.3)
	snap := origin.Snapshot()
	succ := snap.Snapshot()
	want := origin.Snapshot().Digest() // a private snapshot: cells shared, so computing fills them too
	// Clear the cells the line above filled so the readers race to fill them.
	for _, c := range origin.colSum {
		c.reset()
	}
	for _, c := range origin.actSum {
		c.reset()
	}
	var wg sync.WaitGroup
	for _, in := range []*Instance{origin, snap, origin, snap} {
		wg.Add(1)
		go func(in *Instance) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := in.Digest(); got != want {
					t.Errorf("frozen digest %s, want %s", got, want)
					return
				}
			}
		}(in)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cur := succ
		for i := 0; i < 20; i++ {
			cur.SetInterest(i%cur.NumUsers(), i%cur.NumEvents(), float64(i%7)/7)
			cur.SetActivity((3*i)%cur.NumUsers(), i%cur.NumIntervals(), 0.5)
			cur.Digest()
			cur = cur.Snapshot()
		}
	}()
	wg.Wait()
}
