package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/seio"
)

// scrape fetches /metrics, lint-checks the document, and returns it.
func scrape(t *testing.T, c *http.Client, base string) string {
	t.Helper()
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, metrics.ContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := metrics.Lint(body); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	return string(body)
}

// sampleValue extracts the value of the first sample line whose name (plus
// optional label block) starts with prefix.
func sampleValue(t *testing.T, doc, prefix string) float64 {
	t.Helper()
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		// Guard against prefix-matching a longer name: next char must be
		// '{' or ' '.
		rest := line[len(prefix):]
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue
		}
		fields := strings.Fields(line)
		var v float64
		if _, err := fmt.Sscanf(fields[len(fields)-1], "%g", &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("no sample with prefix %q in document", prefix)
	return 0
}

// TestMetricsEndToEnd drives traffic through every layer and asserts the
// scraped counters moved: HTTP requests, score-engine work, cache hit/miss,
// and the request-ID header contract.
func TestMetricsEndToEnd(t *testing.T) {
	s, err := New(Config{Workers: 2, Queue: 8, ScoreWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := ts.Client()

	before := scrape(t, c, ts.URL)

	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 12, 40, 1), http.StatusCreated, nil)
	var solved seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 3}), http.StatusOK, &solved)
	// Repeat: a result-cache hit.
	do(t, c, "POST", ts.URL+"/instances/x/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 3}), http.StatusOK, nil)

	after := scrape(t, c, ts.URL)

	checks := []struct {
		prefix  string
		atLeast float64
	}{
		{`sesd_http_requests_total{route="put_instance",code="201"}`, 1},
		{`sesd_http_requests_total{route="solve",code="200"}`, 2},
		{"sesd_instances", 1},
		{"sesd_solve_score_evals_total", 1},
		{"sesd_score_evals_total", 1},
		{"sesd_score_batches_total", 1},
		{"sesd_result_cache_hits_total", 1},
		{"sesd_result_cache_misses_total", 1},
		{"sesd_engine_cache_misses_total", 1},
		// The solve's engine stays cached with its prefix memo filled.
		{"sesd_score_memo_cells", 1},
		{"sesd_pool_jobs_completed_total", 1},
		{"sesd_pool_queue_wait_seconds_count", 1},
		{`sesd_http_request_duration_seconds_count{route="solve"}`, 2},
	}
	for _, chk := range checks {
		if got := sampleValue(t, after, chk.prefix); got < chk.atLeast {
			t.Errorf("%s = %v, want >= %v", chk.prefix, got, chk.atLeast)
		}
	}
	// The first scrape must itself be a valid document with the persist
	// families present (rendering zero memory-only).
	if got := sampleValue(t, before, "sesd_wal_enabled"); got != 0 {
		t.Errorf("sesd_wal_enabled = %v on a memory-only server", got)
	}
	if got := sampleValue(t, before, "sesd_score_memo_cells"); got != 0 {
		t.Errorf("sesd_score_memo_cells = %v before any engine exists", got)
	}

	// Request-ID contract: generated when absent, echoed when supplied.
	resp, err := c.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing generated X-Request-ID")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/stats", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-1")
	resp, err = c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-supplied-1" {
		t.Errorf("X-Request-ID = %q, want the caller's ID echoed", got)
	}
}

// TestSolveStageTimings exercises the opt-in per-stage breakdown.
func TestSolveStageTimings(t *testing.T) {
	s, err := New(Config{Workers: 1, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := ts.Client()

	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 12, 40, 1), http.StatusCreated, nil)

	// Without timings: no stages.
	var plain seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 3}), http.StatusOK, &plain)
	if plain.Stages != nil {
		t.Errorf("untimed solve returned stages: %v", plain.Stages)
	}

	// With timings (different k so it misses the cache): the four stages in
	// order, none negative.
	var timed seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 4, Timings: true}), http.StatusOK, &timed)
	wantStages := []string{"engine_acquire", "score", "select", "encode"}
	if len(timed.Stages) != len(wantStages) {
		t.Fatalf("stages = %v, want %v", timed.Stages, wantStages)
	}
	for i, st := range timed.Stages {
		if st.Stage != wantStages[i] {
			t.Errorf("stage[%d] = %q, want %q", i, st.Stage, wantStages[i])
		}
		if st.MS < 0 {
			t.Errorf("stage %s is negative: %v", st.Stage, st.MS)
		}
	}

	// A cache hit repeats the result but never the timings — they would be
	// another run's.
	var cached seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 4, Timings: true}), http.StatusOK, &cached)
	if !cached.Cached {
		t.Fatal("repeat solve missed the cache")
	}
	if cached.Stages != nil {
		t.Errorf("cached solve returned stages: %v", cached.Stages)
	}

	// Extend returns stages too.
	var ext seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/extend",
		jsonBody(t, seio.ExtendRequest{Base: timed.Schedule.Assignments, Extra: 2, Timings: true}),
		http.StatusOK, &ext)
	if len(ext.Stages) != len(wantStages) {
		t.Errorf("extend stages = %v, want the four-stage breakdown", ext.Stages)
	}
}

// TestHealthzReportsUptimeAndRecovery covers the /healthz JSON shape on a
// fresh memory-only boot and on a recovered durable one.
func TestHealthzReportsUptimeAndRecovery(t *testing.T) {
	s, err := New(Config{Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	c := ts.Client()
	var h HealthStatus
	do(t, c, "GET", ts.URL+"/healthz", nil, http.StatusOK, &h)
	if h.Status != "ok" || h.Durable || h.Recovered || h.Recovery != nil {
		t.Errorf("fresh memory-only healthz = %+v", h)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v", h.UptimeSeconds)
	}
	ts.Close()
	s.Close()

	// Durable: boot, write, reboot → recovered=true with the replay summary.
	dir := t.TempDir()
	s1, err := New(Config{Workers: 1, Queue: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1)
	do(t, ts1.Client(), "PUT", ts1.URL+"/instances/x", testInstanceJSON(t, 8, 20, 1), http.StatusCreated, nil)
	do(t, ts1.Client(), "GET", ts1.URL+"/healthz", nil, http.StatusOK, &h)
	if !h.Durable || h.Recovered {
		t.Errorf("first durable boot healthz = %+v, want durable, not recovered", h)
	}
	ts1.Close()
	s1.Close()

	s2, err := New(Config{Workers: 1, Queue: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	ts2 := httptest.NewServer(s2)
	defer ts2.Close()
	do(t, ts2.Client(), "GET", ts2.URL+"/healthz", nil, http.StatusOK, &h)
	if !h.Durable || !h.Recovered {
		t.Errorf("recovered boot healthz = %+v, want durable and recovered", h)
	}
	if h.Recovery == nil || h.Recovery.Records == 0 {
		t.Errorf("recovery summary = %+v, want the replayed record count", h.Recovery)
	}

	// A fresh mutation after recovery appends to the WAL, so the append
	// counters and latency histogram move on this process too.
	do(t, ts2.Client(), "PUT", ts2.URL+"/instances/y", testInstanceJSON(t, 8, 20, 2), http.StatusCreated, nil)

	// The recovery gauges surface the same numbers on /metrics.
	doc := scrape(t, ts2.Client(), ts2.URL)
	if got := sampleValue(t, doc, "sesd_recovery_records"); got != float64(h.Recovery.Records) {
		t.Errorf("sesd_recovery_records = %v, want %d", got, h.Recovery.Records)
	}
	if got := sampleValue(t, doc, "sesd_wal_enabled"); got != 1 {
		t.Errorf("sesd_wal_enabled = %v, want 1", got)
	}
	if got := sampleValue(t, doc, "sesd_wal_appends_total"); got < 1 {
		t.Errorf("sesd_wal_appends_total = %v, want >= 1", got)
	}
	if got := sampleValue(t, doc, "sesd_wal_append_duration_seconds_count"); got < 1 {
		t.Errorf("append duration histogram empty on a durable server")
	}
}

// catalogueRe matches backticked sesd_ metric names in the README table.
var catalogueRe = regexp.MustCompile("`(sesd_[a-z0-9_]+)`")

// TestMetricsCatalogueMatchesREADME is the drift guard: every metric name
// registered at server startup must be documented in README.md's catalogue
// table (between the metrics-catalogue markers), and every documented name
// must be registered.
func TestMetricsCatalogueMatchesREADME(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- metrics-catalogue:begin -->", "<!-- metrics-catalogue:end -->"
	doc := string(raw)
	i, j := strings.Index(doc, begin), strings.Index(doc, end)
	if i < 0 || j < 0 || j < i {
		t.Fatal("README.md is missing the metrics-catalogue markers")
	}
	documented := map[string]bool{}
	for _, m := range catalogueRe.FindAllStringSubmatch(doc[i:j], -1) {
		documented[m[1]] = true
	}

	s, err := New(Config{Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	registered := s.Metrics().Names()

	regSet := map[string]bool{}
	for _, name := range registered {
		regSet[name] = true
		if !documented[name] {
			t.Errorf("metric %s is registered but missing from the README catalogue", name)
		}
	}
	for name := range documented {
		if !regSet[name] {
			t.Errorf("metric %s is documented in the README but not registered", name)
		}
	}
	if len(documented) == 0 {
		t.Fatal("catalogue parse found no metric names")
	}
}
