package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/metrics/span"
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

// registryValues samples the server's registry the way GET /stats renders it.
func registryValues(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	vals, err := s.reg.Values()
	if err != nil {
		t.Fatal(err)
	}
	return vals
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
// scraped counters moved: HTTP requests, score-engine work and cache
// hit/miss.
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

}

// TestSolveTraceStages: a solve's trace carries the per-stage breakdown as
// the root's children, the same stages a subscribe push books (queue, then
// engine_acquire, score, select, encode, wal_append, none negative); a cache
// hit ran none of them; an extend, which is never cached, books them all but
// wal_append.
func TestSolveTraceStages(t *testing.T) {
	s, err := New(Config{Workers: 1, Queue: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := ts.Client()

	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 12, 40, 1), http.StatusCreated, nil)
	stages := func(traceID string) []string {
		t.Helper()
		var td span.TraceData
		do(t, c, "GET", ts.URL+"/debug/traces/"+traceID, nil, http.StatusOK, &td)
		var names []string
		for _, ch := range td.Root.Children {
			if ch.DurationMS < 0 {
				t.Errorf("stage %s is negative: %v", ch.Name, ch.DurationMS)
			}
			names = append(names, ch.Name)
		}
		return names
	}

	var solved seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 4}), http.StatusOK, &solved)
	if got := stages(solved.TraceID); !slices.Equal(got, pushStages) {
		t.Fatalf("solve stages = %v, want %v", got, pushStages)
	}

	// A cache hit repeats the result but runs no stage.
	var cached seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 4}), http.StatusOK, &cached)
	if !cached.Cached {
		t.Fatal("repeat solve missed the cache")
	}
	if got := stages(cached.TraceID); len(got) != 0 {
		t.Errorf("cached solve ran stages %v", got)
	}

	var ext seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/x/extend",
		jsonBody(t, seio.ExtendRequest{Base: solved.Schedule.Assignments, Extra: 2}), http.StatusOK, &ext)
	want := pushStages[:len(pushStages)-1]
	if got := stages(ext.TraceID); !slices.Equal(got, want) {
		t.Errorf("extend stages = %v, want %v", got, want)
	}
}

// TestStatsIsMetricsView: after a mixed workload, GET /stats holds exactly the
// /metrics series (histogram buckets aside) with the same values. Every
// sesd_*_total series must agree, except the Go runtime's own counters, which
// move between the two scrapes, and the /stats request counter, which the
// /stats scrape bumps after rendering itself.
func TestStatsIsMetricsView(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 8})
	c := ts.Client()

	do(t, c, "PUT", ts.URL+"/instances/x", testInstanceJSON(t, 6, 40, 1), http.StatusCreated, nil)
	var solved seio.SolveResponse
	for i := 0; i < 2; i++ { // the second is a result-cache hit
		do(t, c, "POST", ts.URL+"/instances/x/solve",
			jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 3}), http.StatusOK, &solved)
	}
	do(t, c, "PATCH", ts.URL+"/instances/x",
		jsonBody(t, seio.MutateRequest{Activity: []seio.CellUpdate{{User: 0, Index: 0, Value: 0.9}}}), http.StatusOK, nil)
	do(t, c, "POST", ts.URL+"/instances/x/extend",
		jsonBody(t, seio.ExtendRequest{Base: solved.Schedule.Assignments[:1], Extra: 2}), http.StatusOK, nil)
	do(t, c, "POST", ts.URL+"/instances/x/mutations",
		jsonBody(t, seio.BatchMutateRequest{Mutations: []seio.MutateRequest{
			{Activity: []seio.CellUpdate{{User: 1, Index: 0, Value: 0.5}}},
		}}), http.StatusOK, nil)
	var job seio.JobStatusMsg
	do(t, c, "POST", ts.URL+"/instances/x/jobs",
		jsonBody(t, seio.JobRequest{Algorithms: []string{"ALG", "HOR"}, Ks: []int{2, 3}}), http.StatusAccepted, &job)
	pollJob(t, c, ts.URL, job.ID, 30*time.Second)

	// Quiet: nothing queued or running. The pool books a job's completion
	// before it leaves active, and a request is counted before its response
	// starts, so no counter can move after this.
	for deadline := time.Now().Add(10 * time.Second); s.pool.active.Load() != 0 || len(s.pool.jobs) != 0; {
		if time.Now().After(deadline) {
			t.Fatal("server never went quiet")
		}
		time.Sleep(time.Millisecond)
	}
	compared := func(key string) bool {
		name, _, _ := strings.Cut(key, "{")
		return strings.HasPrefix(name, "sesd_") && strings.HasSuffix(name, "_total") &&
			!strings.HasPrefix(name, "sesd_go_") && !strings.Contains(key, `route="stats"`)
	}

	var stats map[string]float64
	do(t, c, "GET", ts.URL+"/stats", nil, http.StatusOK, &stats)
	series := map[string]float64{}
	for _, line := range strings.Split(scrape(t, c, ts.URL), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		series[line[:i]] = v
	}

	for key := range stats {
		if _, ok := series[key]; !ok {
			t.Errorf("/stats key %s is not a /metrics series", key)
		}
	}
	checked := 0
	for key, want := range series {
		if !compared(key) {
			continue
		}
		checked++
		if got, ok := stats[key]; !ok || got != want {
			t.Errorf("%s: /stats %v (present %v), /metrics %v", key, got, ok, want)
		}
	}
	// The workload must have moved the families the comparison is about.
	for _, key := range []string{
		"sesd_result_cache_hits_total", "sesd_solve_score_evals_total",
		"sesd_mutation_batches_total", "sesd_job_cells_done_total",
		`sesd_http_requests_total{route="extend",code="200"}`,
	} {
		if stats[key] == 0 {
			t.Errorf("%s did not move", key)
		}
	}
	if checked < 40 {
		t.Errorf("compared only %d sesd_*_total series", checked)
	}
}

// TestRequestCountedBeforeResponse: the request counter books a request as
// its response starts — at the first Write, WriteHeader or Flush — so a
// client that scrapes after reading its response always finds it counted. A
// handler that writes nothing is counted as the empty 200 it gets.
func TestRequestCountedBeforeResponse(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, Queue: 1})
	count := func(route, code string) float64 {
		return registryValues(t, s)[`sesd_http_requests_total{route="`+route+`",code="`+code+`"}`]
	}
	for _, tc := range []struct {
		route, code string
		respond     func(w http.ResponseWriter)
	}{
		{"probe_write", "200", func(w http.ResponseWriter) { _, _ = w.Write([]byte("ok")) }},
		{"probe_header", "404", func(w http.ResponseWriter) { w.WriteHeader(http.StatusNotFound) }},
		{"probe_flush", "200", func(w http.ResponseWriter) { w.(http.Flusher).Flush() }},
		{"probe_silent", "200", func(http.ResponseWriter) {}},
	} {
		var during float64
		h := s.instrument(tc.route, func(w http.ResponseWriter, r *http.Request) {
			tc.respond(w)
			during = count(tc.route, tc.code)
		})
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
		want := 1.0
		if tc.route == "probe_silent" {
			want = 0 // nothing left before the handler returned
		}
		if during != want {
			t.Errorf("%s: counter read %v right after the response started, want %v", tc.route, during, want)
		}
		if got := count(tc.route, tc.code); got != 1 {
			t.Errorf("%s: counter %v after the request, want 1", tc.route, got)
		}
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
