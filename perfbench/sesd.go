package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics/span"
	"repro/internal/server"
)

// sesd is an in-process sesd behind a loopback listener, with its WAL in a
// data directory of its own that close removes.
type sesd struct {
	srv    *server.Server
	hs     *http.Server
	base   string
	dir    string
	served chan error
}

// startSesd builds the service with a fresh data directory under parent and
// serves it on a loopback port.
func startSesd(cfg server.Config, parent string) (*sesd, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "sesd-")
	if err != nil {
		return nil, err
	}
	cfg.DataDir = dir
	srv, err := server.New(cfg)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &sesd{
		srv:    srv,
		hs:     &http.Server{Handler: srv},
		base:   "http://" + ln.Addr().String(),
		dir:    dir,
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close stops the listener once open requests finish, waits for Serve to
// return, stops the service (sealing the WAL) and removes its data.
func (d *sesd) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	<-d.served
	d.srv.Close()
	os.RemoveAll(d.dir)
}

// newClient returns a client that keeps at most one connection open, so a
// load generator using n clients uses at most n connections.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole response body. traceparent, when
// set, joins the server's trace of the request to the caller's.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, traceparent string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// getJSON fetches url and decodes a 200 response into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	code, b, err := do(ctx, c, http.MethodGet, url, nil, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, code, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}

// promSample is one /metrics scrape: each family's samples summed over label
// sets, keyed by sample name (histograms contribute _sum and _count).
type promSample map[string]float64

// scrape reads sesd's /metrics.
func (d *sesd) scrape(ctx context.Context, c *http.Client) (promSample, error) {
	code, b, err := do(ctx, c, http.MethodGet, d.base+"/metrics", nil, "")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %d", code)
	}
	out := promSample{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("bad /metrics line %q", line)
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad /metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// delta returns after[name] - before[name].
func delta(before, after promSample, name string) float64 { return after[name] - before[name] }

// fetchTrace reads one retained server trace. The server stores a trace just
// after the response reaches the client, so a miss is retried briefly.
func (d *sesd) fetchTrace(ctx context.Context, c *http.Client, id string) (span.TraceData, error) {
	var td span.TraceData
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if err = getJSON(ctx, c, d.base+"/debug/traces/"+id, &td); err == nil {
			return td, nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return td, err
}

// recentTraces lists the newest n retained traces of a route.
func (d *sesd) recentTraces(ctx context.Context, c *http.Client, route string, n int) ([]string, error) {
	var list server.TraceListResponse
	if err := getJSON(ctx, c, fmt.Sprintf("%s/debug/traces?route=%s&limit=%d", d.base, route, n), &list); err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(list.Traces))
	for _, t := range list.Traces {
		ids = append(ids, t.TraceID)
	}
	if len(ids) < n {
		return ids, fmt.Errorf("%d %s traces retained, want %d", len(ids), route, n)
	}
	return ids, nil
}

// serverLayers accumulates per-layer times from fetched server traces.
type serverLayers struct {
	queue, score, unbatched, encode, mutate, acqCold, acqWarm []float64
	engineRuns                                                int
}

// add folds one trace into the sums: the direct children of its root are
// the stages sesd records (queue, engine_acquire, score, select, encode).
func (sl *serverLayers) add(td span.TraceData) {
	switch td.Route {
	case "mutate_instance", "mutate_batch":
		sl.mutate = append(sl.mutate, td.DurationMS)
		return
	}
	ran := false
	for _, c := range td.Root.Children {
		switch c.Name {
		case "queue":
			sl.queue = append(sl.queue, c.DurationMS)
		case "engine_acquire":
			ran = true
			if c.Attrs["engine"] == "warm" {
				sl.acqWarm = append(sl.acqWarm, c.DurationMS)
			} else {
				sl.acqCold = append(sl.acqCold, c.DurationMS)
			}
		case "score":
			sl.score = append(sl.score, c.DurationMS)
		case "select":
			sl.unbatched = append(sl.unbatched, c.DurationMS)
		case "encode":
			sl.encode = append(sl.encode, c.DurationMS)
		}
	}
	if ran {
		sl.engineRuns++
	}
}

// set records the server-side per-layer metrics from the traces and the
// /metrics deltas of the traced phase.
func (sl *serverLayers) set(ls *metricSet, before, after promSample) {
	runs := float64(sl.engineRuns)
	evals := delta(before, after, "sesd_score_evals_total")
	grid := delta(before, after, "sesd_score_grid_hits_total")
	cands := delta(before, after, "sesd_score_batch_candidates_sum")
	ls.set("score.batch_ms", mean(sl.score))
	ls.set("score.evals", ratio(evals, runs))
	ls.set("score.fanouts", ratio(delta(before, after, "sesd_score_fanouts_total"), runs))
	ls.set("score.grid_hits", ratio(grid, runs))
	ls.set("score.grid_hit_ratio", ratio(grid, cands))
	ls.set("algo.unbatched_ms", mean(sl.unbatched))
	ls.set("server.queue_ms", mean(sl.queue))
	hits := delta(before, after, "sesd_result_cache_hits_total")
	ls.set("server.result_cache_hit_ratio", ratio(hits, hits+delta(before, after, "sesd_result_cache_misses_total")))
	ls.set("server.engine_acquire_ms.cold", mean(sl.acqCold))
	ls.set("server.engine_acquire_ms.warm", mean(sl.acqWarm))
	ls.set("server.engine_warm_ratio", ratio(float64(len(sl.acqWarm)), float64(len(sl.acqWarm)+len(sl.acqCold))))
	ls.set("server.encode_ms", mean(sl.encode))
	ls.set("server.mutate_ms", mean(sl.mutate))
	appends := delta(before, after, "sesd_wal_appends_total")
	ls.set("persist.wal_append_ms", 1000*ratio(delta(before, after, "sesd_wal_append_duration_seconds_sum"),
		delta(before, after, "sesd_wal_append_duration_seconds_count")))
	ls.set("persist.wal_bytes_per_append", ratio(delta(before, after, "sesd_wal_appended_bytes_total"), appends))
	ls.set("persist.compactions", delta(before, after, "sesd_wal_compactions_total"))
}

// checkEvictions invalidates a traced run whose trace ring dropped a trace
// before the benchmark read it.
func checkEvictions(res *Result, after promSample) {
	if n := after["sesd_traces_evicted_total"]; n > 0 {
		res.invalidf("%v traces evicted from the trace ring before they were read", n)
	}
}

// errStatus reports a non-2xx response.
func errStatus(code int, body []byte) error {
	return fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
}

// is2xx reports a success status.
func is2xx(code int) bool { return code >= 200 && code < 300 }
