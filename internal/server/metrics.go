package server

import (
	"bytes"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/metrics/span"
	"repro/internal/persist"
	"repro/internal/score"
)

// This file is the server's observability surface: the metric registry every
// layer reports into, the HTTP middleware that instruments and access-logs
// each route, and the GET /metrics handler that renders it all as Prometheus
// text exposition. GET /stats renders the same registry as flat JSON, so the
// registry is the only bookkeeping either endpoint reads.
//
// Every metric is registered unconditionally — persist-layer families render 0
// on a memory-only server rather than disappearing — so the catalogue a
// scraper sees (and the guard test checks against the README) is identical
// regardless of configuration. Subsystems that keep their own atomic counters
// (the pool, the caches, the jobs, the WAL) are exposed through
// CounterFunc/GaugeFunc closures sampling those atomics at scrape time: one
// source of truth, no double bookkeeping.

// batchWidthBuckets sizes the candidate-count histogram of batched scoring
// calls: frontiers range from a handful of events to the low thousands.
var batchWidthBuckets = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500}

// streamDurationBuckets lay out the streaming-route duration family: an SSE
// subscription legitimately stays open from seconds to hours, so the buckets
// run far past the request-latency layout.
var streamDurationBuckets = []float64{0.01, 0.1, 1, 10, 60, 300, 1800, 7200, 43200}

// streamingRoutes hold a connection open for the subscription's lifetime;
// their durations go to sesd_http_stream_duration_seconds so they cannot
// poison the request-latency percentiles.
var streamingRoutes = map[string]bool{"subscribe": true}

// initMetrics builds the registry and the write-path instruments. Called by
// New before persistence opens (the WAL wants its histograms at Open time);
// the scrape-time closures tolerate fields that are still nil.
func (s *Server) initMetrics() {
	r := metrics.NewRegistry()
	s.reg = r

	// HTTP layer.
	s.httpRequests = r.CounterVec("sesd_http_requests_total",
		"HTTP requests served, by route and status code.", "route", "code")
	s.httpDuration = r.HistogramVec("sesd_http_request_duration_seconds",
		"HTTP request latency by route (streaming routes excluded; see sesd_http_stream_duration_seconds).",
		metrics.DurationBuckets, "route")
	s.httpStreamDuration = r.HistogramVec("sesd_http_stream_duration_seconds",
		"Connection lifetime of long-held streaming routes (SSE subscribe).",
		streamDurationBuckets, "route")
	s.httpInFlight = r.Gauge("sesd_http_requests_in_flight",
		"HTTP requests currently being served.")

	// Build identity and runtime health.
	version, goVersion, gitSHA := buildInfo()
	r.GaugeVec("sesd_build_info",
		"Constant 1, labeled with the build's version, Go toolchain and git revision.",
		"version", "go_version", "git_sha").With(version, goVersion, gitSHA).Set(1)
	metrics.RegisterRuntime(r, "sesd_")

	// Request tracing.
	r.CounterFunc("sesd_traces_stored_total",
		"Completed traces retained in the /debug/traces ring.",
		func() float64 { return float64(s.traces.Stored()) })
	r.CounterFunc("sesd_traces_evicted_total",
		"Traces evicted from the ring by newer ones (raise -trace-store to keep more).",
		func() float64 { return float64(s.traces.Evicted()) })
	r.GaugeFunc("sesd_traces_retained",
		"Traces currently retained in the ring.",
		func() float64 { return float64(s.traces.Len()) })
	s.traceSlow = r.Counter("sesd_trace_slow_total",
		"Traces slower than -trace-slow, tail-sampled into the structured log.")

	// Service-level.
	r.GaugeFunc("sesd_uptime_seconds",
		"Seconds since the server finished recovery and began serving.",
		func() float64 { return time.Since(s.started).Seconds() })
	r.GaugeFunc("sesd_instances",
		"Instances currently in the store.",
		func() float64 { return float64(s.store.Len()) })
	r.CounterFunc("sesd_solve_score_evals_total",
		"Eq. 4 score evaluations accumulated by pool-run solves (cache hits add none).",
		func() float64 { return float64(s.scoreEvals.Load()) })
	r.CounterFunc("sesd_solve_examined_total",
		"Candidate (event, slot) pairs examined by pool-run solves.",
		func() float64 { return float64(s.examined.Load()) })

	// Solver pool.
	r.GaugeFunc("sesd_pool_workers",
		"Solver pool worker goroutines.",
		func() float64 { return float64(s.pool.workers) })
	r.GaugeFunc("sesd_pool_queue_capacity",
		"Solver queue capacity (a full queue fails requests with 429).",
		func() float64 { return float64(cap(s.pool.jobs)) })
	r.GaugeFunc("sesd_pool_queue_depth",
		"Jobs waiting in the solver queue.",
		func() float64 { return float64(len(s.pool.jobs)) })
	r.GaugeFunc("sesd_pool_active",
		"Jobs currently executing on pool workers.",
		func() float64 { return float64(s.pool.active.Load()) })
	s.pool.queueWait = r.Histogram("sesd_pool_queue_wait_seconds",
		"Time jobs spent queued before a worker picked them up.", metrics.DurationBuckets)
	r.CounterFunc("sesd_pool_jobs_completed_total",
		"Pool jobs run to completion.",
		func() float64 { return float64(s.pool.completed.Load()) })
	r.CounterFunc("sesd_pool_jobs_rejected_total",
		"Pool submissions rejected because the queue was full (HTTP 429).",
		func() float64 { return float64(s.pool.rejected.Load()) })
	r.CounterFunc("sesd_pool_jobs_skipped_total",
		"Queued jobs skipped because their request died before a worker got to them.",
		func() float64 { return float64(s.pool.skipped.Load()) })
	r.CounterFunc("sesd_pool_job_panics_total",
		"Solver panics recovered at the pool boundary.",
		func() float64 { return float64(s.pool.panics.Load()) })

	// Result cache.
	r.GaugeFunc("sesd_result_cache_entries",
		"Entries in the solve result cache.",
		func() float64 { return float64(s.cache.Len()) })
	r.CounterFunc("sesd_result_cache_hits_total",
		"Result-cache hits (O(1) repeat solves).",
		func() float64 { return float64(s.cache.hits.Load()) })
	r.CounterFunc("sesd_result_cache_misses_total",
		"Result-cache misses.",
		func() float64 { return float64(s.cache.misses.Load()) })
	r.CounterFunc("sesd_result_cache_invalidations_total",
		"Result-cache entries dropped by instance replacement, mutation or delete.",
		func() float64 { return float64(s.cache.invalidations.Load()) })
	r.CounterFunc("sesd_result_cache_stale_drops_total",
		"Result-cache inserts refused because their instance version was no longer live.",
		func() float64 { return float64(s.cache.staleDrops.Load()) })

	// Engine cache.
	r.GaugeFunc("sesd_engine_cache_engines",
		"Scoring engines currently cached (per instance version and option set).",
		func() float64 { return float64(s.engines.len()) })
	r.CounterFunc("sesd_engine_cache_hits_total",
		"Engine-cache hits (the per-version precompute and worker set were reused).",
		func() float64 { return float64(s.engines.hits.Load()) })
	r.CounterFunc("sesd_engine_cache_misses_total",
		"Engine-cache misses (an engine was built).",
		func() float64 { return float64(s.engines.misses.Load()) })
	r.CounterFunc("sesd_engine_cache_warm_builds_total",
		"Engine-cache misses answered by a delta rebuild of the previous version's engine.",
		func() float64 { return float64(s.engines.warmBuilds.Load()) })
	r.CounterFunc("sesd_engine_cache_stale_drops_total",
		"Engine-cache inserts refused because their instance version was no longer live.",
		func() float64 { return float64(s.engines.staleDrops.Load()) })

	// Score engine (fed by the shared sink wired into every cached engine).
	s.scoreSink = &score.Sink{
		Evals: r.Counter("sesd_score_evals_total",
			"Eq. 4 evaluations executed by server-owned scoring engines."),
		Batches: r.Counter("sesd_score_batches_total",
			"Batched frontier-scoring calls executed."),
		Fanouts: r.Counter("sesd_score_fanouts_total",
			"Scoring calls that fanned out across shard workers (parallel mode)."),
		BatchCandidates: r.Histogram("sesd_score_batch_candidates",
			"Candidates per batched scoring call (the frontier width).", batchWidthBuckets),
		BatchSeconds: r.Histogram("sesd_score_batch_duration_seconds",
			"Wall time of one batched frontier-scoring call.", metrics.DurationBuckets),
		GridHits: r.Counter("sesd_score_grid_hits_total",
			"Eq. 4 scores served from an engine's prefix memo instead of recomputed."),
	}
	s.engines.sink = s.scoreSink
	r.GaugeFunc("sesd_score_memo_cells",
		"Score cells held by the prefix memos of cached engines (8 bytes each).",
		func() float64 { return float64(s.engines.memoCells()) })
	// Incremental re-solve (the subscribe path) and batch mutations.
	r.CounterFunc("sesd_mutation_batches_total",
		"Batch mutation requests applied (each is one version bump and one WAL record).",
		func() float64 { return float64(s.mutationBatches.Load()) })
	r.GaugeFunc("sesd_subscribers",
		"Active schedule subscriptions (open SSE streams).",
		func() float64 { return float64(s.subs.count()) })
	r.CounterFunc("sesd_resolve_solves_total",
		"Re-solves executed by the subscribe path (result-cache hits add none).",
		func() float64 { return float64(s.resolveSolves.Load()) })
	r.CounterFunc("sesd_resolve_warm_total",
		"Subscribe-path re-solves that reused prior state (engine hit or warm delta rebuild).",
		func() float64 { return float64(s.resolveWarm.Load()) })
	r.CounterFunc("sesd_resolve_fallback_total",
		"Subscribe-path re-solves that needed a cold engine build.",
		func() float64 { return float64(s.resolveFallback.Load()) })
	s.resolveDuration = r.Histogram("sesd_resolve_duration_seconds",
		"Steady-state re-solve latency on the subscribe path (queue wait included).",
		metrics.DurationBuckets)
	r.CounterFunc("sesd_resolve_pushes_total",
		"Schedule events pushed to subscribers.",
		func() float64 { return float64(s.resolvePushes.Load()) })

	// Async jobs.
	r.GaugeFunc("sesd_jobs_retained",
		"Jobs currently retained (active plus finished within the TTL).",
		func() float64 { return float64(s.jobs.retained()) })
	r.CounterFunc("sesd_jobs_submitted_total",
		"Sweep jobs accepted.",
		func() float64 { return float64(s.jobs.submitted.Load()) })
	r.CounterFunc("sesd_jobs_finished_total",
		"Sweep jobs that reached a terminal state.",
		func() float64 { return float64(s.jobs.finished.Load()) })
	r.CounterFunc("sesd_jobs_cancel_requests_total",
		"DELETE /jobs/{id} cancellation requests.",
		func() float64 { return float64(s.jobs.cancelRequests.Load()) })
	r.CounterFunc("sesd_job_cells_done_total",
		"Sweep cells that completed successfully.",
		func() float64 { return float64(s.jobs.cellsDone.Load()) })
	r.CounterFunc("sesd_job_cells_failed_total",
		"Sweep cells that failed.",
		func() float64 { return float64(s.jobs.cellsFailed.Load()) })
	r.CounterFunc("sesd_job_cells_cancelled_total",
		"Sweep cells cancelled before or during execution.",
		func() float64 { return float64(s.jobs.cellsCancelled.Load()) })

	// Persistence. All families exist on a memory-only server too (rendering
	// 0), so the catalogue does not depend on -data-dir.
	r.GaugeFunc("sesd_wal_enabled",
		"1 when the server runs with a write-ahead log, 0 memory-only.",
		func() float64 {
			if s.wal != nil {
				return 1
			}
			return 0
		})
	r.CounterFunc("sesd_wal_appends_total",
		"WAL records appended.",
		func() float64 { return float64(s.walStats().Appends) })
	r.CounterFunc("sesd_wal_appended_bytes_total",
		"Bytes appended to the WAL.",
		func() float64 { return float64(s.walStats().AppendedBytes) })
	r.CounterFunc("sesd_wal_append_errors_total",
		"WAL appends that failed (mutations were refused with 500).",
		func() float64 { return float64(s.walAppendErrors.Load()) })
	r.CounterFunc("sesd_wal_rotations_total",
		"WAL segment rotations.",
		func() float64 { return float64(s.walStats().Rotations) })
	r.CounterFunc("sesd_wal_rotate_errors_total",
		"Failed segment rotations (the log stays on the oversized segment and retries).",
		func() float64 { return float64(s.walStats().RotateErrors) })
	r.GaugeFunc("sesd_wal_segments",
		"Live WAL segments not yet absorbed by a snapshot.",
		func() float64 { return float64(s.walStats().Segments) })
	r.GaugeFunc("sesd_wal_active_segment_bytes",
		"Bytes in the active WAL segment.",
		func() float64 { return float64(s.walStats().ActiveBytes) })
	r.CounterFunc("sesd_wal_compactions_total",
		"Snapshot compactions completed.",
		func() float64 { return float64(s.walStats().Compactions) })
	r.CounterFunc("sesd_wal_compaction_errors_total",
		"Snapshot compactions that failed (retried after cooldown).",
		func() float64 { return float64(s.walCompactErrors.Load()) })
	r.GaugeFunc("sesd_snapshot_records",
		"Records in the newest published snapshot.",
		func() float64 { return float64(s.walStats().SnapshotRecords) })
	s.persistM = &persist.Metrics{
		AppendSeconds: r.Histogram("sesd_wal_append_duration_seconds",
			"Full WAL append critical section (frame write plus fsync when enabled).",
			metrics.IOBuckets),
		FsyncSeconds: r.Histogram("sesd_wal_fsync_duration_seconds",
			"Per-append fsync latency (empty unless -fsync).", metrics.IOBuckets),
		SnapshotSeconds: r.Histogram("sesd_snapshot_duration_seconds",
			"Snapshot write duration (state dump, fsync, publish rename).",
			metrics.DurationBuckets),
		SnapshotBytes: r.Gauge("sesd_snapshot_bytes",
			"Byte size of the newest published snapshot."),
	}
	r.GaugeFunc("sesd_recovery_duration_seconds",
		"Boot-time WAL replay duration (constant after startup).",
		func() float64 { return s.recoveryMS / 1000 })
	r.GaugeFunc("sesd_recovery_records",
		"WAL records replayed on top of the snapshot at boot.",
		func() float64 {
			if s.recovery == nil {
				return 0
			}
			return float64(s.recovery.Records)
		})
	r.GaugeFunc("sesd_recovery_snapshot_records",
		"Records applied from the snapshot at boot.",
		func() float64 {
			if s.recovery == nil {
				return 0
			}
			return float64(s.recovery.SnapshotRecords)
		})
}

// walStats samples the live WAL's counters, or zeros memory-only.
func (s *Server) walStats() persist.Stats {
	if s.wal == nil {
		return persist.Stats{}
	}
	return s.wal.Stats()
}

// Metrics exposes the registry, primarily for the catalogue guard test.
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// handleMetrics renders the registry as Prometheus text exposition. It
// renders before writing because the first write books this request in the
// request counter (statusWriter): a scrape never counts itself, whichever
// family the render reaches first.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var doc bytes.Buffer
	_ = s.reg.WritePrometheus(&doc) // a bytes.Buffer never fails
	w.Header().Set("Content-Type", metrics.ContentType)
	_, _ = w.Write(doc.Bytes()) // client gone; nothing to recover
}

// statusWriter captures the status code and body size a handler produced,
// and books the request through begin once, at the first WriteHeader, Write
// or Flush: before the response's first byte can leave, so a client that
// scrapes after reading its response always finds its request counted.
type statusWriter struct {
	http.ResponseWriter
	code  int
	bytes int64
	begin func(code int)
}

// start records the response's status and books it, once.
func (w *statusWriter) start(code int) {
	if w.code == 0 {
		w.code = code
		w.begin(code)
	}
}

func (w *statusWriter) WriteHeader(code int) {
	w.start(code)
	w.ResponseWriter.WriteHeader(code)
}

// Flush forwards to the underlying writer so streaming handlers (SSE
// subscribe) keep working behind the instrumentation middleware.
func (w *statusWriter) Flush() {
	w.start(http.StatusOK)
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.start(http.StatusOK)
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// instrument wraps one route's handler with the observability middleware:
// in-flight tracking, traceparent propagation, the request's span tree, the
// labeled request counter (booked as the response starts), and at exit the
// latency histogram and one structured access-log line keyed by the trace ID.
func (s *Server) instrument(route string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.httpInFlight.Inc()
		defer s.httpInFlight.Dec()

		// Every request gets a trace rooted at its route; a valid incoming
		// W3C traceparent is adopted so the server's spans join the caller's
		// trace, and either way the header is echoed with the root span as
		// the parent ID. The trace rides the request context into the pool,
		// the engine cache and the scoring engine.
		tr := span.NewRoot(route)
		tr.Adopt(r.Header.Get("traceparent"))
		w.Header().Set("traceparent", tr.Traceparent())
		r = r.WithContext(span.NewContext(r.Context(), tr))

		sw := &statusWriter{ResponseWriter: w, begin: func(code int) {
			s.httpRequests.With(route, strconv.Itoa(code)).Inc()
		}}
		h(sw, r)

		// A handler that wrote nothing (e.g. client disconnect mid-solve)
		// gets the net/http default, an empty 200.
		sw.start(http.StatusOK)
		code := sw.code
		elapsed := time.Since(start)
		if streamingRoutes[route] {
			s.httpStreamDuration.With(route).Observe(elapsed.Seconds())
		} else {
			s.httpDuration.With(route).Observe(elapsed.Seconds())
		}

		tr.Annotate("method", r.Method)
		tr.Annotate("path", r.URL.Path)
		tr.Annotate("status", strconv.Itoa(code))
		if !untracedRoutes[route] {
			s.recordTrace(tr)
		}

		lvl := slog.LevelInfo
		if code >= 500 {
			lvl = slog.LevelWarn
		}
		s.logger.LogAttrs(r.Context(), lvl, "request",
			slog.String("trace_id", tr.ID()),
			slog.String("method", r.Method),
			slog.String("route", route),
			slog.String("path", r.URL.Path),
			slog.Int("status", code),
			slog.Int64("bytes", sw.bytes),
			slog.Float64("elapsed_ms", float64(elapsed)/float64(time.Millisecond)),
		)
	})
}
