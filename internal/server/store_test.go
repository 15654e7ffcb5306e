package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/seio"
)

// TestVersionSequenceSurvivesDelete pins the cache-safety invariant:
// versions for a name never repeat, even across Delete + re-Put, so an
// in-flight solve of deleted content can never collide with a cache key of
// its replacement.
func TestVersionSequenceSurvivesDelete(t *testing.T) {
	st := NewStore()
	inst, err := dataset.Generate(dataset.DefaultConfig(3, 20, dataset.Uniform, 1))
	if err != nil {
		t.Fatal(err)
	}
	info, existed, err := st.Put("a", inst)
	if err != nil {
		t.Fatal(err)
	}
	if existed || info.Version != 1 {
		t.Fatalf("first put: existed=%v version=%d", existed, info.Version)
	}
	if _, err := st.Mutate("a", seio.MutateRequest{
		Activity: []seio.CellUpdate{{User: 0, Index: 0, Value: 0.5}},
	}, nil); err != nil {
		t.Fatal(err)
	}
	if ok, err := st.Delete("a"); err != nil || !ok {
		t.Fatalf("delete failed: ok=%v err=%v", ok, err)
	}
	info2, existed, err := st.Put("a", inst)
	if err != nil {
		t.Fatal(err)
	}
	if existed {
		t.Error("re-put after delete reported the name as existing")
	}
	if info2.Version <= 2 {
		t.Errorf("version restarted at %d after delete; must continue past 2", info2.Version)
	}
}

// TestPoolSurvivesPanic pins the panic boundary: the store is memory-only,
// so one panicking job must not take down the worker (and with it the
// daemon holding every uploaded instance).
func TestPoolSurvivesPanic(t *testing.T) {
	p := NewPool(1, 2)
	defer p.Close()
	if err := p.Submit(context.Background(), func() { panic("boom") }); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	if err := p.Submit(context.Background(), func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done // the single worker survived the panic and ran the next job
	if got := p.panics.Load(); got != 1 {
		t.Errorf("panics counter %d, want 1", got)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	p := NewPool(1, 1)
	p.Close()
	if err := p.Submit(context.Background(), func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Errorf("submit after close: %v, want ErrPoolClosed", err)
	}
	p.Close() // idempotent: must not panic on the closed channel
}

func TestStoreGetAfterDelete(t *testing.T) {
	st := NewStore()
	inst, err := dataset.Generate(dataset.DefaultConfig(3, 20, dataset.Uniform, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("a", inst); err != nil {
		t.Fatal(err)
	}
	snap, _, err := st.Get("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Delete("a"); err != nil {
		t.Fatal(err)
	}
	// The held snapshot stays fully usable after deletion.
	if snap.NumUsers() != 20 || snap.Validate() != nil {
		t.Error("snapshot unusable after delete")
	}
	if _, _, err := st.Get("a"); !errors.Is(err, ErrNotFound) {
		t.Errorf("get after delete: %v, want ErrNotFound", err)
	}
}

// TestWriteLockCleanup is the regression test for the write-lock leak: PR 1
// kept one mutex per instance name forever, so churning names (create a
// sweep instance, delete it, repeat with a fresh name) grew the map without
// bound. Lock entries must now die with their name, while live names keep
// theirs and the version-sequence table (deliberately) still remembers
// everything.
func TestWriteLockCleanup(t *testing.T) {
	st := NewStore()
	inst, err := dataset.Generate(dataset.DefaultConfig(3, 20, dataset.Uniform, 1))
	if err != nil {
		t.Fatal(err)
	}
	const churn = 100
	for i := 0; i < churn; i++ {
		name := fmt.Sprintf("churn-%d", i)
		if _, _, err := st.Put(name, inst); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Mutate(name, seio.MutateRequest{
			Activity: []seio.CellUpdate{{User: 0, Index: 0, Value: 0.25}},
		}, nil); err != nil {
			t.Fatal(err)
		}
		if ok, err := st.Delete(name); err != nil || !ok {
			t.Fatalf("delete %s: ok=%v err=%v", name, ok, err)
		}
	}
	if _, _, err := st.Put("alive", inst); err != nil {
		t.Fatal(err)
	}
	st.mu.RLock()
	locks, vers := len(st.writeLocks), len(st.lastVer)
	st.mu.RUnlock()
	if locks != 1 {
		t.Errorf("write-lock map holds %d entries after churning %d names, want 1 (the live name)", locks, churn)
	}
	if vers != churn+1 {
		t.Errorf("version-sequence table holds %d entries, want %d (it must outlive deletes)", vers, churn+1)
	}

	// Delete on a missing name must not mint a permanent entry either.
	if ok, err := st.Delete("never-stored"); err != nil || ok {
		t.Fatalf("delete of missing name: ok=%v err=%v", ok, err)
	}
	st.mu.RLock()
	locks = len(st.writeLocks)
	st.mu.RUnlock()
	if locks != 1 {
		t.Errorf("write-lock map holds %d entries after deleting a missing name, want 1", locks)
	}

	// Concurrent churn of one name (exercised under -race in CI): waiters
	// keep the entry referenced; once everyone is done only live names
	// retain locks.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, _, err := st.Put("contended", inst); err != nil {
					t.Error(err)
					return
				}
				if _, err := st.Delete("contended"); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st.mu.RLock()
	locks = len(st.writeLocks)
	st.mu.RUnlock()
	if locks != 1 {
		t.Errorf("write-lock map holds %d entries after concurrent churn, want 1", locks)
	}
}
