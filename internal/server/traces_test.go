package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics/span"
	"repro/internal/seio"
)

// solveTraced issues a solve carrying the given traceparent and returns the
// response plus the echoed traceparent header.
func solveTraced(t *testing.T, c *http.Client, url, traceparent string, body []byte) (seio.SolveResponse, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status %d", resp.StatusCode)
	}
	var sr seio.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr, resp.Header.Get("traceparent")
}

// TestTraceEndToEnd is the tentpole acceptance test: a client-minted
// traceparent rides a solve, and the stored server trace exposes the span
// tree — queue, engine acquisition (cold vs warm), scoring, selection and
// encoding — with child durations summing to no more than the root.
func TestTraceEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 8})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/tr", testInstanceJSON(t, 4, 40, 3), http.StatusCreated, nil)

	header, traceID := span.MintTraceparent()
	sr, echoed := solveTraced(t, c, ts.URL+"/instances/tr/solve",
		header, jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 3, Timings: true}))
	if sr.TraceID != traceID {
		t.Fatalf("response trace_id %q, want adopted %q", sr.TraceID, traceID)
	}
	if !strings.Contains(echoed, traceID) {
		t.Errorf("echoed traceparent %q does not carry trace %q", echoed, traceID)
	}
	if len(sr.Stages) == 0 {
		t.Error("timings requested but no stage breakdown returned")
	}

	var td span.TraceData
	do(t, c, "GET", ts.URL+"/debug/traces/"+traceID, nil, http.StatusOK, &td)
	if td.Route != "solve" {
		t.Errorf("trace route %q, want solve", td.Route)
	}
	got := map[string]float64{}
	childSum := 0.0
	for _, ch := range td.Root.Children {
		got[ch.Name] = ch.DurationMS
		childSum += ch.DurationMS
	}
	for _, want := range []string{"queue", "engine_acquire", "score", "select", "encode"} {
		if _, ok := got[want]; !ok {
			t.Errorf("span %q missing from trace; have %v", want, got)
		}
	}
	if childSum > td.DurationMS {
		t.Errorf("child spans sum to %.3fms > root %.3fms", childSum, td.DurationMS)
	}
	for _, ch := range td.Root.Children {
		if ch.Name == "engine_acquire" && ch.Attrs["engine"] != "cold" {
			t.Errorf("first solve engine attr %q, want cold", ch.Attrs["engine"])
		}
	}

	// A second solve of the same version with a different k misses the result
	// cache but reuses the engine: its acquire span must read warm.
	sr2, _ := solveTraced(t, c, ts.URL+"/instances/tr/solve",
		"", jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 2}))
	if sr2.TraceID == "" || sr2.TraceID == traceID {
		t.Fatalf("second solve trace_id %q not distinct", sr2.TraceID)
	}
	var td2 span.TraceData
	do(t, c, "GET", ts.URL+"/debug/traces/"+sr2.TraceID, nil, http.StatusOK, &td2)
	warm := false
	for _, ch := range td2.Root.Children {
		if ch.Name == "engine_acquire" && ch.Attrs["engine"] == "warm" {
			warm = true
		}
	}
	if !warm {
		t.Errorf("second solve's engine_acquire not annotated warm: %+v", td2.Root.Children)
	}

	// A cache hit still names its own request's trace — never the original's.
	var hit seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/tr/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "HOR-I", K: 3}), http.StatusOK, &hit)
	if !hit.Cached {
		t.Fatal("expected a cache hit")
	}
	if hit.TraceID == "" || hit.TraceID == traceID || hit.TraceID == sr2.TraceID {
		t.Errorf("cached response trace_id %q not its own", hit.TraceID)
	}
	if len(hit.Stages) != 0 {
		t.Errorf("cached response carries stages %v", hit.Stages)
	}
}

// TestTracesListing exercises the /debug/traces filters and error paths.
func TestTracesListing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 8})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/ls", testInstanceJSON(t, 3, 30, 5), http.StatusCreated, nil)
	do(t, c, "POST", ts.URL+"/instances/ls/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "ALG", K: 2}), http.StatusOK, nil)
	do(t, c, "GET", ts.URL+"/instances/ls", nil, http.StatusOK, nil)

	var all TraceListResponse
	do(t, c, "GET", ts.URL+"/debug/traces", nil, http.StatusOK, &all)
	routes := map[string]bool{}
	for _, tr := range all.Traces {
		routes[tr.Route] = true
	}
	if !routes["solve"] || !routes["put_instance"] || !routes["get_instance"] {
		t.Errorf("expected solve/put_instance/get_instance traces, got %v", routes)
	}
	// Observability endpoints never trace themselves into the ring.
	if routes["debug_traces"] || routes["metrics"] || routes["healthz"] {
		t.Errorf("observability routes leaked into the ring: %v", routes)
	}

	var only TraceListResponse
	do(t, c, "GET", ts.URL+"/debug/traces?route=solve&limit=1", nil, http.StatusOK, &only)
	if len(only.Traces) != 1 || only.Traces[0].Route != "solve" {
		t.Errorf("route filter returned %+v", only.Traces)
	}
	do(t, c, "GET", ts.URL+"/debug/traces?min_ms=abc", nil, http.StatusBadRequest, nil)
	// ParseFloat accepts these, but none is a duration: NaN and ±Inf are not
	// finite, and 1e300 ms (or anything ≥ 2^63 ns) overflows int64.
	for _, v := range []string{"NaN", "Inf", "-Inf", "1e300", "9223372036855"} {
		do(t, c, "GET", ts.URL+"/debug/traces?min_ms="+v, nil, http.StatusBadRequest, nil)
	}
	var none TraceListResponse
	do(t, c, "GET", ts.URL+"/debug/traces?min_ms=9223372036854", nil, http.StatusOK, &none)
	if len(none.Traces) != 0 {
		t.Errorf("min_ms just under the int64 bound returned %d traces", len(none.Traces))
	}
	do(t, c, "GET", ts.URL+"/debug/traces?limit=0", nil, http.StatusBadRequest, nil)
	do(t, c, "GET", ts.URL+"/debug/traces/00000000000000000000000000000000", nil, http.StatusNotFound, nil)
}

// TestAccessLogCarriesTraceID checks the request log line links both IDs: the
// caller's X-Request-ID and the trace ID /debug/traces resolves.
func TestAccessLogCarriesTraceID(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4, Logger: logger})
	c := ts.Client()
	do(t, c, "GET", ts.URL+"/instances", nil, http.StatusOK, nil)
	logs := logBuf.String()
	if !strings.Contains(logs, "request_id=") || !strings.Contains(logs, "trace_id=") {
		t.Errorf("access log missing request_id/trace_id:\n%s", logs)
	}
}

// TestStreamDurationFamilySplit ensures streaming routes book latency into
// their own histogram: a subscriber holding its connection open for seconds
// must not smear the request-latency percentiles every dashboard reads.
func TestStreamDurationFamilySplit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/st", testInstanceJSON(t, 3, 30, 9), http.StatusCreated, nil)

	// A short-lived subscribe: read the first SSE event, then disconnect.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/instances/st/subscribe?algorithm=ALG&k=2", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatalf("subscribe stream: %v", err)
	}
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		doc := scrape(t, c, ts.URL)
		if strings.Contains(doc, `sesd_http_stream_duration_seconds_count{route="subscribe"`) {
			if strings.Contains(doc, `sesd_http_request_duration_seconds_count{route="subscribe"`) {
				t.Fatal("subscribe booked into BOTH duration families")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscribe never reached the stream duration family:\n%s", doc)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestScrapeCarriesBuildAndRuntimeFamilies extends the metrics e2e coverage
// to the new families: build identity and the runtime/metrics bridge.
func TestScrapeCarriesBuildAndRuntimeFamilies(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	doc := scrape(t, ts.Client(), ts.URL)
	for _, want := range []string{
		"sesd_build_info{",
		"sesd_go_goroutines ",
		"sesd_go_heap_objects_bytes ",
		"sesd_go_mem_total_bytes ",
		"sesd_go_gc_cycles_total ",
		"sesd_go_gc_pause_seconds_count ",
		"sesd_go_sched_latency_seconds_count ",
		"sesd_traces_stored_total ",
		"sesd_traces_evicted_total ",
		"sesd_traces_retained ",
		"sesd_trace_slow_total ",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("scrape missing %q", want)
		}
	}
	var h HealthStatus
	do(t, ts.Client(), "GET", ts.URL+"/healthz", nil, http.StatusOK, &h)
	if h.Version == "" || h.GoVersion == "" || h.GitSHA == "" {
		t.Errorf("healthz build fields empty: %+v", h)
	}
	if !strings.Contains(doc, fmt.Sprintf("go_version=%q", h.GoVersion)) {
		t.Errorf("build_info go_version label does not match healthz %q", h.GoVersion)
	}
}

// TestSlowTraceTailSampling drops the slow threshold to one nanosecond so
// every request qualifies, and checks the slow_trace log line carries the
// trace ID and the per-span breakdown.
func TestSlowTraceTailSampling(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&logBuf, nil))
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4, Logger: logger, TraceSlow: time.Nanosecond})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/sl", testInstanceJSON(t, 3, 30, 13), http.StatusCreated, nil)
	var sr seio.SolveResponse
	do(t, c, "POST", ts.URL+"/instances/sl/solve",
		jsonBody(t, seio.SolveRequest{Algorithm: "ALG", K: 2}), http.StatusOK, &sr)
	logs := logBuf.String()
	if !strings.Contains(logs, "slow_trace") || !strings.Contains(logs, sr.TraceID) {
		t.Errorf("slow_trace line for %s missing:\n%s", sr.TraceID, logs)
	}
	if !strings.Contains(logs, "score=") {
		t.Errorf("slow_trace line lacks span breakdown:\n%s", logs)
	}
	doc := scrape(t, c, ts.URL)
	if strings.Contains(doc, "sesd_trace_slow_total 0\n") {
		t.Error("sesd_trace_slow_total still zero")
	}
}
