package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/seio"
)

// testInstanceJSON renders a small synthetic instance as a seio upload body.
func testInstanceJSON(t *testing.T, k, users int, seed uint64) []byte {
	t.Helper()
	inst, err := dataset.Generate(dataset.DefaultConfig(k, users, dataset.Zipf2, seed))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := seio.WriteInstance(&buf, inst); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// do issues a request and decodes the JSON response into out (if non-nil).
func do(t *testing.T, client *http.Client, method, url string, body []byte, wantCode int, out any) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d; body: %s", method, url, resp.StatusCode, wantCode, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("%s %s: decode response: %v; body: %s", method, url, err, raw)
		}
	}
}

func jsonBody(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestLifecycle drives the acceptance scenario end to end: upload → solve
// (HOR-I) → repeated solve served from the cache with no new scorer work →
// extend → summarize → mutation bumps the version and invalidates only that
// instance's cache entries → stats reflect all of it.
func TestLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, Queue: 8})
	c := ts.Client()

	// Upload two instances; the second exists to prove that invalidation
	// is per-instance, not global.
	var infoA, infoB seio.InstanceInfo
	do(t, c, "PUT", ts.URL+"/instances/fest", testInstanceJSON(t, 4, 40, 7), http.StatusCreated, &infoA)
	do(t, c, "PUT", ts.URL+"/instances/other", testInstanceJSON(t, 3, 30, 11), http.StatusCreated, &infoB)
	if infoA.Version != 1 || infoA.Digest == "" || infoA.Users != 40 {
		t.Fatalf("bad upload info: %+v", infoA)
	}

	// Solve both with HOR-I.
	solveBody := jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 4})
	var first seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/fest/solve", solveBody, http.StatusOK, &first)
	if first.Cached || first.Algorithm != "HOR-I" || len(first.Schedule.Assignments) == 0 {
		t.Fatalf("bad first solve: %+v", first)
	}
	if first.ScoreEvals <= 0 {
		t.Fatalf("first solve reports no scorer work: %+v", first)
	}
	var otherSolve seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/other/solve", solveBody, http.StatusOK, &otherSolve)

	statsAfterFirst := registryValues(t, srv)
	if h := statsAfterFirst["sesd_result_cache_hits_total"]; h != 0 {
		t.Fatalf("unexpected cache hits before repeat: %v", h)
	}

	// The identical query must come from the cache: hit counter up, global
	// scorer-work counter unchanged.
	var repeat seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/fest/solve", solveBody, http.StatusOK, &repeat)
	if !repeat.Cached {
		t.Fatal("repeated identical solve not served from cache")
	}
	if repeat.Schedule.Utility != first.Schedule.Utility {
		t.Fatalf("cached utility drifted: %v vs %v", repeat.Schedule.Utility, first.Schedule.Utility)
	}
	statsAfterRepeat := registryValues(t, srv)
	const hits, evals = "sesd_result_cache_hits_total", "sesd_solve_score_evals_total"
	if statsAfterRepeat[hits] != statsAfterFirst[hits]+1 {
		t.Fatalf("cache hits %v, want %v", statsAfterRepeat[hits], statsAfterFirst[hits]+1)
	}
	if statsAfterRepeat[evals] != statsAfterFirst[evals] {
		t.Fatalf("cached solve did scorer work: %v → %v", statsAfterFirst[evals], statsAfterRepeat[evals])
	}

	// Extend the solved schedule by one more event.
	var extended seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/fest/extend",
		jsonBody(t, seio.ExtendRequest{Base: first.Schedule.Assignments, Extra: 1}), http.StatusOK, &extended)
	if len(extended.Schedule.Assignments) <= len(first.Schedule.Assignments) {
		t.Fatalf("extend did not grow the schedule: %d → %d", len(first.Schedule.Assignments), len(extended.Schedule.Assignments))
	}
	if extended.Schedule.Utility < first.Schedule.Utility {
		t.Fatalf("extend decreased utility: %v → %v", first.Schedule.Utility, extended.Schedule.Utility)
	}

	// Summarize renders the report against the current version.
	var sum seio.SummarizeResponse
	do(t, c, "POST", ts.URL+"/instances/fest/summarize",
		jsonBody(t, seio.SummarizeRequest{Schedule: extended.Schedule.Assignments}), http.StatusOK, &sum)
	if !strings.Contains(sum.Text, "total expected attendance") {
		t.Fatalf("summary text missing report header: %q", sum.Text)
	}
	if sum.Schedule.Utility != extended.Schedule.Utility {
		t.Fatalf("summary re-evaluation drifted: %v vs %v", sum.Schedule.Utility, extended.Schedule.Utility)
	}

	// Simulate cross-checks the analytic utility.
	var simResp seio.SimulateResponse
	do(t, c, "POST", ts.URL+"/instances/fest/simulate",
		jsonBody(t, seio.SimulateRequest{Schedule: first.Schedule.Assignments, Trials: 400, Seed: 3}), http.StatusOK, &simResp)
	if simResp.Analytic <= 0 || simResp.Trials != 400 {
		t.Fatalf("bad simulate response: %+v", simResp)
	}

	// Mutate instance A: version bumps, only A's cache entries die.
	var mutated seio.InstanceInfo
	do(t, c, "PATCH", ts.URL+"/instances/fest",
		jsonBody(t, seio.MutateRequest{Activity: []seio.CellUpdate{{User: 0, Index: 0, Value: 0.9}}}),
		http.StatusOK, &mutated)
	if mutated.Version != infoA.Version+1 {
		t.Fatalf("mutation version %d, want %d", mutated.Version, infoA.Version+1)
	}
	if mutated.Digest == infoA.Digest {
		t.Fatal("mutation did not change the digest")
	}

	// A misses (recomputes at the new version), B still hits.
	var after seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/fest/solve", solveBody, http.StatusOK, &after)
	if after.Cached {
		t.Fatal("solve after mutation served stale cache entry")
	}
	if after.Instance.Version != mutated.Version {
		t.Fatalf("solve saw version %d, want %d", after.Instance.Version, mutated.Version)
	}
	var otherRepeat seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/other/solve", solveBody, http.StatusOK, &otherRepeat)
	if !otherRepeat.Cached {
		t.Fatal("mutation of one instance invalidated another instance's cache entries")
	}

	// Stats reflect the traffic.
	var stats map[string]float64
	do(t, c, "GET", ts.URL+"/stats", nil, http.StatusOK, &stats)
	if n := stats["sesd_instances"]; n != 2 {
		t.Errorf("stats report %v instances, want 2", n)
	}
	if n := stats[`sesd_http_requests_total{route="solve",code="200"}`]; n != 5 {
		t.Errorf("stats report %v solves, want 5", n)
	}
	if stats["sesd_result_cache_hits_total"] != 2 || stats["sesd_result_cache_invalidations_total"] == 0 {
		t.Errorf("unexpected cache stats: %v hits, %v invalidations",
			stats["sesd_result_cache_hits_total"], stats["sesd_result_cache_invalidations_total"])
	}
	if stats["sesd_pool_jobs_completed_total"] == 0 || stats["sesd_pool_workers"] != 2 {
		t.Errorf("unexpected pool stats: %v completed, %v workers",
			stats["sesd_pool_jobs_completed_total"], stats["sesd_pool_workers"])
	}

	// Lifecycle tail: list, get, delete.
	var listing struct {
		Instances []seio.InstanceInfo `json:"instances"`
	}
	do(t, c, "GET", ts.URL+"/instances", nil, http.StatusOK, &listing)
	if len(listing.Instances) != 2 || listing.Instances[0].Name != "fest" {
		t.Fatalf("bad listing: %+v", listing)
	}
	resp, err := c.Get(ts.URL + "/instances/fest")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("X-SES-Digest") != mutated.Digest {
		t.Errorf("GET digest header %q, want %q", resp.Header.Get("X-SES-Digest"), mutated.Digest)
	}
	if _, err := seio.ReadInstance(resp.Body); err != nil {
		t.Errorf("GET body is not a valid instance: %v", err)
	}
	resp.Body.Close()
	do(t, c, "DELETE", ts.URL+"/instances/fest", nil, http.StatusNoContent, nil)
	do(t, c, "DELETE", ts.URL+"/instances/fest", nil, http.StatusNotFound, nil)
	do(t, c, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)
}

func TestErrorPaths(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	c := ts.Client()
	solve := func(body []byte) *http.Response {
		resp, err := c.Post(ts.URL+"/instances/none/solve", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Unknown instance.
	resp := solve(jsonBody(t, seio.SolveRequest{K: 2}))
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("solve on missing instance: %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Bad k, bad algorithm, unknown field, garbage body.
	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 3, 20, 5), http.StatusCreated, nil)
	for name, body := range map[string][]byte{
		"bad k":         jsonBody(t, seio.SolveRequest{K: 0}),
		"bad algorithm": jsonBody(t, seio.SolveRequest{Algorithm: "NOPE", K: 2}),
		"unknown field": []byte(`{"k":2,"algorithmm":"HOR"}`),
		"garbage":       []byte("{"),
	} {
		var e seio.ErrorResponse
		do(t, c, "POST", ts.URL+"/instances/x/solve", body, http.StatusBadRequest, &e)
		if e.Error == "" {
			t.Errorf("%s: empty error body", name)
		}
	}

	// Bad uploads and mutations.
	do(t, c, "PUT", ts.URL+"/instances/y", []byte("not json"), http.StatusBadRequest, nil)
	do(t, c, "PATCH", ts.URL+"/instances/x", jsonBody(t, seio.MutateRequest{}), http.StatusBadRequest, nil)
	do(t, c, "PATCH", ts.URL+"/instances/x",
		jsonBody(t, seio.MutateRequest{Interest: []seio.CellUpdate{{User: 999, Index: 0, Value: 0.5}}}),
		http.StatusBadRequest, nil)
	do(t, c, "PATCH", ts.URL+"/instances/none",
		jsonBody(t, seio.MutateRequest{Activity: []seio.CellUpdate{{Value: 1}}}), http.StatusNotFound, nil)

	// A failed mutation batch must not have published a new version.
	var listing struct {
		Instances []seio.InstanceInfo `json:"instances"`
	}
	do(t, c, "GET", ts.URL+"/instances", nil, http.StatusOK, &listing)
	if len(listing.Instances) != 1 || listing.Instances[0].Version != 1 {
		t.Fatalf("failed mutation changed store state: %+v", listing.Instances)
	}

	// Extend with an infeasible base.
	do(t, c, "POST", ts.URL+"/instances/x/extend",
		jsonBody(t, seio.ExtendRequest{Base: []seio.AssignmentMsg{{Event: 0, Interval: 0}, {Event: 0, Interval: 1}}, Extra: 1}),
		http.StatusBadRequest, nil)
}

// TestBackpressure fills the pool queue with blocked jobs and asserts the
// next solve is rejected with 429 instead of queuing unbounded.
func TestBackpressure(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 3, 20, 5), http.StatusCreated, nil)

	// Occupy the single worker and fill the queue of one directly.
	block := make(chan struct{})
	started := make(chan struct{})
	if err := srv.pool.Submit(t.Context(), func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started // the worker is now busy; the queue is empty
	if err := srv.pool.Submit(t.Context(), func() {}); err != nil {
		t.Fatal(err) // fills the queue slot
	}

	resp, err := c.Post(ts.URL+"/instances/x/solve", "application/json",
		bytes.NewReader(jsonBody(t, seio.SolveRequest{K: 2})))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	close(block)

	// Once unblocked, the same request succeeds.
	do(t, c, "POST", ts.URL+"/instances/x/solve",
		jsonBody(t, seio.SolveRequest{K: 2}), http.StatusOK, &seio.SolveResponse{})
	if got := srv.pool.rejected.Load(); got != 1 {
		t.Errorf("pool rejected %d, want 1", got)
	}
}

// TestCacheEviction pins the LRU bound: a cache of 2 holding 3 distinct
// queries evicts the least recently used.
func TestCacheEviction(t *testing.T) {
	cache := NewCache(2)
	mk := func(k int) cacheKey { return cacheKey{name: "x", version: 1, algorithm: "HOR-I", k: k} }
	for k := 1; k <= 3; k++ {
		cache.Put(mk(k), seio.SolveResponse{K: k})
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", cache.Len())
	}
	if _, ok := cache.Get(mk(1)); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := cache.Get(mk(3)); !ok {
		t.Error("most recent entry evicted")
	}
}

func TestRandSeedsCacheSeparately(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 3, 20, 5), http.StatusCreated, nil)
	var a, b, a2 seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve", jsonBody(t, seio.SolveRequest{Algorithm: "RAND", K: 2, Seed: 1}), http.StatusOK, &a)
	do(t, c, "POST", ts.URL+"/instances/x/solve", jsonBody(t, seio.SolveRequest{Algorithm: "RAND", K: 2, Seed: 2}), http.StatusOK, &b)
	if b.Cached {
		t.Error("different RAND seed served from cache")
	}
	do(t, c, "POST", ts.URL+"/instances/x/solve", jsonBody(t, seio.SolveRequest{Algorithm: "RAND", K: 2, Seed: 1}), http.StatusOK, &a2)
	if !a2.Cached {
		t.Error("same RAND seed not served from cache")
	}
	// Deterministic algorithms ignore the seed in the key.
	var h1, h2 seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve", jsonBody(t, seio.SolveRequest{Algorithm: "HOR", K: 2, Seed: 10}), http.StatusOK, &h1)
	do(t, c, "POST", ts.URL+"/instances/x/solve", jsonBody(t, seio.SolveRequest{Algorithm: "HOR", K: 2, Seed: 20}), http.StatusOK, &h2)
	if !h2.Cached {
		t.Error("deterministic algorithm fragmented the cache by seed")
	}
}

func TestSolveWithOptions(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 3, 20, 5), http.StatusCreated, nil)

	weights := make([]float64, 20)
	for i := range weights {
		weights[i] = float64(i%3) + 0.5
	}
	var plain, weighted seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve", jsonBody(t, seio.SolveRequest{K: 2}), http.StatusOK, &plain)
	do(t, c, "POST", ts.URL+"/instances/x/solve", jsonBody(t, seio.SolveRequest{K: 2, UserWeights: weights}), http.StatusOK, &weighted)
	if weighted.Cached {
		t.Error("weighted query hit the unweighted cache entry")
	}
	// Mismatched option dimensions fail with 400.
	do(t, c, "POST", ts.URL+"/instances/x/solve",
		jsonBody(t, seio.SolveRequest{K: 2, UserWeights: []float64{1}}), http.StatusBadRequest, nil)
}

func ExampleServer() {
	s, err := New(Config{Workers: 1, Queue: 1})
	if err != nil {
		panic(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	var health HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		panic(err)
	}
	fmt.Print(health.Status)
	// Output: ok
}
