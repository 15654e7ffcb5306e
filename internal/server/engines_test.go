package server

import (
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/seio"
)

func engineTestInstance(t *testing.T) *core.Instance {
	t.Helper()
	inst, err := dataset.Generate(dataset.DefaultConfig(6, 300, dataset.Zipf2, 7))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// The cache must share one engine per key, refcount in-flight users, and
// close evicted engines only after their last release.
func TestEngineCacheShareEvictRelease(t *testing.T) {
	inst := engineTestInstance(t)
	ec := newEngineCache(2, 2)
	defer ec.close()

	k1 := engineKey{name: "a", version: 1}
	e1, rel1, _, err := ec.acquire(k1, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e1b, rel1b, _, err := ec.acquire(k1, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e1b {
		t.Fatal("same key produced two engines")
	}
	st := ec.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Engines != 1 {
		t.Fatalf("stats after share: %+v", st)
	}

	// Fill past capacity: k1 (still referenced) must survive functionally
	// even if evicted — its engine keeps working until released.
	for v := uint64(2); v <= 4; v++ {
		_, rel, _, err := ec.acquire(engineKey{name: "a", version: v}, inst, core.ScorerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rel()
	}
	if n := ec.stats().Engines; n > 2 {
		t.Fatalf("cache holds %d engines, capacity 2", n)
	}
	// The evicted-but-referenced engine must still score.
	s := core.NewSchedule(inst)
	_ = e1.Score(s, 0, 0)
	rel1()
	rel1b()
	rel1b() // releases are idempotent

	// After invalidate, the same key builds a fresh engine (a miss).
	misses := ec.stats().Misses
	ec.invalidate("a")
	if n := ec.stats().Engines; n != 0 {
		t.Fatalf("invalidate left %d engines", n)
	}
	_, rel, _, err := ec.acquire(k1, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rel()
	if got := ec.stats().Misses; got != misses+1 {
		t.Fatalf("misses = %d after invalidate, want %d", got, misses+1)
	}
}

// After close, acquires still work (private engines) so shutdown stragglers
// cannot crash, and nothing is cached.
func TestEngineCacheCloseStragglers(t *testing.T) {
	inst := engineTestInstance(t)
	ec := newEngineCache(0, 4)
	ec.close()
	en, rel, _, err := ec.acquire(engineKey{name: "x", version: 1}, inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSchedule(inst)
	_ = en.Score(s, 0, 0)
	rel()
	if n := ec.stats().Engines; n != 0 {
		t.Fatalf("closed cache cached %d engines", n)
	}
}

// Concurrent parallel-scoring solves and sweep jobs through the HTTP API:
// one engine per version shared across cells and requests, exercised under
// -race, with deterministic agreement against a sequential server.
func TestParallelSolvesShareEngineUnderRace(t *testing.T) {
	seqSrv, seqTS := newTestServer(t, Config{Workers: 2, Queue: 32})
	parSrv, parTS := newTestServer(t, Config{Workers: 2, Queue: 32, ScoreWorkers: 4})
	body := testInstanceJSON(t, 8, 400, 11)
	for _, base := range []string{seqTS.URL, parTS.URL} {
		do(t, http.DefaultClient, http.MethodPut, base+"/instances/fest", body, http.StatusCreated, nil)
	}

	solve := func(base string, alg string, k int) seio.SolveResponse {
		var out seio.SolveResponse
		do(t, http.DefaultClient, http.MethodPost, base+"/instances/fest/solve",
			jsonBody(t, seio.SolveRequest{Algorithm: alg, K: k}), http.StatusOK, &out)
		return out
	}

	algos := []string{"ALG", "INC", "HOR", "HOR-I", "TOP"}
	ks := []int{5, 7}
	var wg sync.WaitGroup
	results := make([]seio.SolveResponse, len(algos)*len(ks))
	for i, alg := range algos {
		for j, k := range ks {
			wg.Add(1)
			go func(slot int, alg string, k int) {
				defer wg.Done()
				results[slot] = solve(parTS.URL, alg, k)
			}(j*len(algos)+i, alg, k)
		}
	}
	wg.Wait()

	// Every parallel result must equal the sequential server's bit for bit.
	for i, alg := range algos {
		for j, k := range ks {
			want := solve(seqTS.URL, alg, k)
			got := results[j*len(algos)+i]
			if got.ScoreEvals != want.ScoreEvals || got.Examined != want.Examined {
				t.Errorf("%s k=%d: counters (%d,%d) parallel vs (%d,%d) sequential",
					alg, k, got.ScoreEvals, got.Examined, want.ScoreEvals, want.Examined)
			}
			if fmt.Sprint(got.Schedule.Assignments) != fmt.Sprint(want.Schedule.Assignments) {
				t.Errorf("%s k=%d: schedules diverged", alg, k)
			}
		}
	}

	// A sweep job on the parallel server: all cells of the pinned version
	// share one engine; stats must show engine reuse.
	var job seio.JobStatusMsg
	do(t, http.DefaultClient, http.MethodPost, parTS.URL+"/instances/fest/jobs",
		jsonBody(t, seio.JobRequest{Algorithms: []string{"ALG", "HOR"}, Ks: []int{3, 4}}), http.StatusAccepted, &job)
	final := pollJob(t, http.DefaultClient, parTS.URL, job.ID, 30*time.Second)
	if final.Counts.Done != 4 {
		t.Fatalf("sweep finished with %+v, want 4 done cells", final.Counts)
	}

	if st := parSrv.engines.stats(); st.Workers != 4 || st.Hits == 0 {
		t.Fatalf("parallel server engine stats show no sharing: %+v", st)
	}
	if st := seqSrv.engines.stats(); st.Workers != 1 {
		t.Fatalf("sequential server reports %d engine workers", st.Workers)
	}
}
