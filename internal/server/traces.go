package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics/span"
)

// BuildVersion names the running build; override at link time with
//
//	go build -ldflags "-X repro/internal/server.BuildVersion=v1.2.3"
//
// It surfaces in the sesd_build_info gauge and the /healthz body.
var BuildVersion = "dev"

// buildInfo reports the build identity: the linked version, the compiling Go
// toolchain, and the VCS revision when the binary was built inside a checkout
// ("unknown" otherwise — test binaries, go run).
func buildInfo() (version, goVersion, gitSHA string) {
	version, goVersion, gitSHA = BuildVersion, runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" && kv.Value != "" {
				gitSHA = kv.Value
			}
		}
	}
	return version, goVersion, gitSHA
}

// untracedRoutes are the observability endpoints themselves: their traces
// would fill the ring with scrape noise and bury the solves a debugger came
// to look at. They still mint and echo traceparent like every route.
var untracedRoutes = map[string]bool{
	"healthz": true, "stats": true, "metrics": true,
	"debug_traces": true, "debug_trace": true,
}

// recordTrace finishes the trace, retains its snapshot in the ring store, and
// tail-samples it into the log when it crossed the configured slow threshold.
// Shared by the HTTP middleware and the non-request trace producers (job
// cells, subscribe re-solves).
func (s *Server) recordTrace(tr *span.Trace) {
	tr.Finish()
	td := tr.Snapshot()
	s.traces.Add(td)
	if slow := s.cfg.TraceSlow; slow > 0 && td.DurationMS >= float64(slow)/float64(time.Millisecond) {
		s.traceSlow.Inc()
		s.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow_trace",
			slog.String("trace_id", td.TraceID),
			slog.String("route", td.Route),
			slog.Float64("duration_ms", td.DurationMS),
			slog.String("spans", spanSummary(td.Root)),
		)
	}
}

// spanSummary flattens the root's direct children into one "name=1.2ms ..."
// string — the per-span breakdown of the slow-trace log line.
func spanSummary(root span.SpanData) string {
	var b strings.Builder
	for i, c := range root.Children {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%.3fms", c.Name, c.DurationMS)
	}
	return b.String()
}

// engineTemp renders the engine cache's reuse signal as a span annotation.
func engineTemp(reused bool) string {
	if reused {
		return "warm"
	}
	return "cold"
}

// TraceSummary is one row of the GET /debug/traces listing.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Route      string    `json:"route"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
}

// TraceListResponse is the GET /debug/traces body.
type TraceListResponse struct {
	Traces []TraceSummary `json:"traces"`
}

// handleTraces lists recently completed traces, newest first:
//
//	GET /debug/traces?route=solve&min_ms=5&limit=20
//
// route filters by root span name, min_ms keeps only traces at least that
// slow, limit caps the rows (default 64). Full span trees are one hop away at
// /debug/traces/{id}.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var minDur time.Duration
	if v := q.Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		ns := ms * float64(time.Millisecond)
		// !(ns >= 0) also rejects NaN; the upper bound rejects +Inf and every
		// value whose conversion to a Duration would overflow int64.
		if err != nil || !(ns >= 0) || ns >= math.MaxInt64 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad min_ms %q", v))
			return
		}
		minDur = time.Duration(ns)
	}
	limit := 64
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad limit %q", v))
			return
		}
		limit = n
	}
	recent := s.traces.Recent(q.Get("route"), minDur, limit)
	out := TraceListResponse{Traces: make([]TraceSummary, 0, len(recent))}
	for _, td := range recent {
		out.Traces = append(out.Traces, TraceSummary{
			TraceID:    td.TraceID,
			Route:      td.Route,
			Start:      td.Start,
			DurationMS: td.DurationMS,
			Spans:      td.SpanCount(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleTrace returns one retained trace's full span tree as JSON.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	td, ok := s.traces.Get(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("trace not found (evicted or never stored)"))
		return
	}
	writeJSON(w, http.StatusOK, td)
}
