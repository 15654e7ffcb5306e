package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"sync"
	"testing"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/seio"
)

// TestConcurrentSolveAndMutate is the store's core concurrency guarantee,
// exercised under -race: solvers keep reading the snapshot they started
// with while a writer publishes successor versions. Each result must be
// internally consistent — feasible, and with a utility that exactly matches
// re-scoring its schedule against the snapshot it was computed on.
func TestConcurrentSolveAndMutate(t *testing.T) {
	st := NewStore()
	inst, err := dataset.Generate(dataset.DefaultConfig(4, 60, dataset.Zipf2, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Put("x", inst); err != nil {
		t.Fatal(err)
	}

	const (
		solvers   = 4
		rounds    = 8
		mutations = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < solvers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				snap, info, err := st.Get("x")
				if err != nil {
					t.Error(err)
					return
				}
				res, err := algo.HORI{}.Schedule(snap, 4)
				if err != nil {
					t.Error(err)
					return
				}
				// The schedule must be feasible on its snapshot...
				if err := res.Schedule.CheckFeasible(); err != nil {
					t.Errorf("infeasible result at version %d: %v", info.Version, err)
					return
				}
				// ...and its utility must re-derive exactly from the
				// snapshot — a torn read of a mutating matrix would
				// break this equality.
				re := core.NewScorer(snap).Utility(res.Schedule)
				if math.Abs(re-res.Utility) > 1e-12 {
					t.Errorf("utility drifted at version %d: reported %v, rescored %v", info.Version, res.Utility, re)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < mutations; i++ {
			_, err := st.Mutate("x", seio.MutateRequest{
				Activity: []seio.CellUpdate{{User: i % inst.NumUsers(), Index: i % inst.NumIntervals(), Value: float64(i%100) / 100}},
				Interest: []seio.CellUpdate{{User: i % inst.NumUsers(), Index: i % inst.NumEvents(), Value: float64((i*7)%100) / 100}},
			}, nil)
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	_, info, err := st.Get("x")
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1+mutations {
		t.Errorf("final version %d, want %d", info.Version, 1+mutations)
	}
}

// TestConcurrentHTTPTraffic hammers the full HTTP stack from many goroutines
// mixing solves and mutations, under -race. Every solve must observe a
// self-consistent (version, schedule) pair.
func TestConcurrentHTTPTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, Queue: 64})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 4, 50, 9), http.StatusCreated, nil)

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if w%3 == 0 {
					body := jsonBody(t, seio.MutateRequest{
						Activity: []seio.CellUpdate{{User: (w + i) % 50, Index: 0, Value: float64(i%10) / 10}},
					})
					req, err := http.NewRequest("PATCH", ts.URL+"/instances/x", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					resp, err := c.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					resp.Body.Close()
					continue
				}
				resp, err := c.Post(ts.URL+"/instances/x/solve", "application/json",
					bytes.NewReader(jsonBody(t, seio.SolveRequest{K: 3})))
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode == http.StatusOK {
					var sr seio.SolveResponse
					if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
						t.Error(err)
					} else if len(sr.Schedule.Assignments) == 0 {
						t.Error("empty schedule from successful solve")
					}
				} else if resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				resp.Body.Close()
			}
		}(w)
	}
	wg.Wait()
}
