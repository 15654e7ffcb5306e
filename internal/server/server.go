package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/metrics/span"
	"repro/internal/persist"
	"repro/internal/score"
	"repro/internal/seio"
)

// Config sizes the service. Zero values select the defaults.
type Config struct {
	// Workers is the solver pool size; default GOMAXPROCS. Solves are
	// CPU-bound, so more workers than cores only adds contention.
	Workers int
	// Queue is the solver queue capacity; default 64. A full queue makes
	// solve requests fail fast with 429 (backpressure).
	Queue int
	// CacheSize bounds the solve result cache (entries); default 256.
	CacheSize int
	// MaxBodyBytes bounds request bodies; default 256 MiB (a 1M-user
	// instance upload is large). Exceeding it fails the decode with 400.
	MaxBodyBytes int64
	// JobTTL is how long finished sweep jobs stay pollable before the
	// store retires them; default 15 minutes.
	JobTTL time.Duration
	// MaxJobCells bounds the grid size (algorithms × k values) of one
	// sweep job; default 256.
	MaxJobCells int
	// ScoreWorkers > 1 shards every solve's Eq. 4 scoring across that many
	// goroutines per run (sesd -parallel); negative means GOMAXPROCS. 0 or
	// 1 keeps scoring sequential. Utilities and counters are bit-identical
	// either way. Note the interplay with Workers: up to Workers solves run
	// concurrently, each fanning out to ScoreWorkers scoring goroutines, so
	// Workers × ScoreWorkers at or near GOMAXPROCS is the sensible ceiling.
	ScoreWorkers int
	// ScoreEngines bounds the cache of per-instance-version scoring
	// engines; default 8.
	ScoreEngines int
	// DataDir, when non-empty, makes the service durable: every store
	// mutation, completed solve and finished job is written ahead to a
	// segmented WAL in this directory, compacted into snapshots, and
	// replayed on boot before the server takes traffic. Empty keeps today's
	// memory-only behavior.
	DataDir string
	// Fsync syncs the WAL after every append (durable against power loss,
	// not just process death). Off by default: a SIGKILL loses nothing
	// either way, only an OS crash can eat the last unflushed records.
	Fsync bool
	// SegmentBytes rolls the WAL to a fresh segment past this size;
	// default 64 MiB.
	SegmentBytes int64
	// CompactEvery rolls the segments into a full snapshot after this many
	// WAL records, bounding replay cost; default 4096.
	CompactEvery int
	// Logger receives the structured access log (one line per request) and
	// lifecycle events. Nil discards them — tests and embedded servers stay
	// silent without configuration.
	Logger *slog.Logger
	// TraceStore bounds the in-memory ring of completed request traces
	// served by GET /debug/traces; default 256.
	TraceStore int
	// TraceSlow tail-samples traces slower than this threshold into the
	// structured log as one line with the trace ID and per-span durations.
	// 0 (the default) disables slow-trace logging.
	TraceSlow time.Duration
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.CacheSize <= 0 {
		c.CacheSize = 256
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.MaxJobCells <= 0 {
		c.MaxJobCells = 256
	}
	if c.ScoreWorkers < 0 {
		c.ScoreWorkers = runtime.GOMAXPROCS(0)
	}
	if c.ScoreEngines <= 0 {
		c.ScoreEngines = 8
	}
	if c.CompactEvery <= 0 {
		c.CompactEvery = 4096
	}
	if c.TraceStore <= 0 {
		c.TraceStore = 256
	}
	return c
}

// Server is the sesd HTTP service: store + pool + cache + async jobs behind
// a ServeMux.
type Server struct {
	cfg     Config
	store   *Store
	pool    *Pool
	cache   *Cache
	jobs    *Jobs
	engines *engineCache
	subs    *subHub
	mux     *http.ServeMux

	started time.Time

	// Observability (built by initMetrics before any traffic). The registry
	// holds every instrument; the named fields are the write-path handles the
	// middleware and handlers bump directly.
	reg          *metrics.Registry
	logger       *slog.Logger
	httpRequests *metrics.CounterVec
	httpDuration *metrics.HistogramVec
	// httpStreamDuration is the duration family of long-held streaming
	// routes (SSE subscribe): their open-for-minutes observations would
	// otherwise poison the request-latency percentiles.
	httpStreamDuration *metrics.HistogramVec
	httpInFlight       *metrics.Gauge
	scoreSink          *score.Sink
	persistM           *persist.Metrics

	// Request tracing: every request gets a span tree (see instrument);
	// completed traces land in the bounded ring behind GET /debug/traces,
	// and ones slower than cfg.TraceSlow are tail-sampled into the log.
	traces    *span.Store
	traceSlow *metrics.Counter

	// scoreEvals / examined accumulate the work counters of every solver
	// run executed by the pool; a cache hit adds nothing, which is how the
	// lifecycle test observes "no new scorer work".
	scoreEvals atomic.Int64
	examined   atomic.Int64

	// Incremental re-solve counters (the subscribe path and the batch
	// mutation endpoint); resolveDuration is the steady-state re-solve
	// latency histogram the resolve figure reads back.
	resolveSolves   atomic.Int64
	resolveWarm     atomic.Int64
	resolveFallback atomic.Int64
	resolvePushes   atomic.Int64
	mutationBatches atomic.Int64
	resolveDuration *metrics.Histogram

	// Durability (nil / zero when running memory-only). Replay completes
	// inside New, before the Server is ever handed to a listener, so no
	// request can observe a half-recovered store; the user-visible
	// "503 recovering" phase is served by cli.Sesd while New replays.
	wal              *persist.Log
	recovery         *persist.RecoveryStats
	recoveryMS       float64
	walSinceSnap     atomic.Int64
	walAppendErrors  atomic.Int64
	walCompactErrors atomic.Int64
	compactKick      chan struct{}
	compactQuit      chan struct{}
	compactWG        sync.WaitGroup
}

// New builds a ready-to-serve Server. With cfg.DataDir set it first recovers
// the durable state (store, result cache, finished jobs) from the WAL and
// snapshots there — bit-identical names, versions and digests — and attaches
// the log so new mutations are written ahead; recovery problems fail
// construction rather than serve from a partial state. Callers must Close it
// to stop the worker pool (and seal the WAL).
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		store:   NewStore(),
		pool:    NewPool(cfg.Workers, cfg.Queue),
		cache:   NewCache(cfg.CacheSize),
		jobs:    NewJobs(cfg.JobTTL),
		engines: newEngineCache(cfg.ScoreWorkers, cfg.ScoreEngines),
		subs:    newSubHub(),
		mux:     http.NewServeMux(),
		started: time.Now(),
		logger:  cfg.Logger,
		traces:  span.NewStore(cfg.TraceStore),
	}
	if s.logger == nil {
		s.logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// Staleness oracles: both caches refuse inserts for versions that are no
	// longer the store's live version, closing the PATCH-races-solve window
	// where a dead version's entry could re-enter after its invalidation.
	// Wired before persistence so replayed solve records get the same guard
	// (replay applies records in log order, so a record's version IS live
	// when it replays — unless a later record supersedes it, which is
	// exactly when it should be dropped).
	s.cache.SetCurrent(s.store.currentVersion)
	s.engines.setCurrent(s.store.currentVersion)
	// Metrics exist before persistence opens: the WAL takes its histograms at
	// Open time, and recovery itself is something we want measured.
	s.initMetrics()
	if cfg.DataDir != "" {
		if err := s.openPersistence(); err != nil {
			s.jobs.Close()
			s.pool.Close()
			s.engines.close()
			return nil, err
		}
	}
	s.mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.Handle("GET /stats", s.instrument("stats", s.handleStats))
	s.mux.Handle("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.Handle("GET /instances", s.instrument("list_instances", s.handleList))
	s.mux.Handle("PUT /instances/{name}", s.instrument("put_instance", s.handlePut))
	s.mux.Handle("GET /instances/{name}", s.instrument("get_instance", s.handleGet))
	s.mux.Handle("DELETE /instances/{name}", s.instrument("delete_instance", s.handleDelete))
	s.mux.Handle("PATCH /instances/{name}", s.instrument("mutate_instance", s.handleMutate))
	s.mux.Handle("POST /instances/{name}/solve", s.instrument("solve", s.handleSolve))
	s.mux.Handle("POST /instances/{name}/extend", s.instrument("extend", s.handleExtend))
	s.mux.Handle("POST /instances/{name}/simulate", s.instrument("simulate", s.handleSimulate))
	s.mux.Handle("POST /instances/{name}/summarize", s.instrument("summarize", s.handleSummarize))
	s.mux.Handle("POST /instances/{name}/mutations", s.instrument("mutate_batch", s.handleMutateBatch))
	s.mux.Handle("GET /instances/{name}/subscribe", s.instrument("subscribe", s.handleSubscribe))
	s.mux.Handle("POST /instances/{name}/jobs", s.instrument("submit_job", s.handleSubmitJob))
	s.mux.Handle("GET /jobs", s.instrument("list_jobs", s.handleListJobs))
	s.mux.Handle("GET /jobs/{id}", s.instrument("get_job", s.handleGetJob))
	s.mux.Handle("DELETE /jobs/{id}", s.instrument("cancel_job", s.handleCancelJob))
	s.mux.Handle("GET /debug/traces", s.instrument("debug_traces", s.handleTraces))
	s.mux.Handle("GET /debug/traces/{id}", s.instrument("debug_trace", s.handleTrace))
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close cancels every async job, waits for their dispatchers, drains the
// worker pool (running cells observe their cancelled contexts and stop at
// the next periodic check), releases the cached scoring engines, and seals
// the WAL — after the drain, so every finished result had its chance to log.
func (s *Server) Close() {
	s.jobs.Close()
	s.pool.Close()
	s.engines.close()
	s.closePersistence()
}

// writeJSON writes v as a JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

// writeErr writes the uniform error body.
func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, seio.ErrorResponse{Error: err.Error()})
}

// decodeBody decodes a JSON request body into v, bounded by the configured
// body limit. Unknown fields are rejected so typos in request bodies fail
// loudly instead of silently falling back to defaults.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request body: %w", err)
	}
	return nil
}

// storeErrCode maps store errors to HTTP statuses. WAL append failures are
// the server's fault (disk trouble), not the client's.
func storeErrCode(err error) int {
	switch {
	case errors.Is(err, ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrWALAppend):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}
