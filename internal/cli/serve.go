package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/seio"
	"repro/internal/server"
)

// newLogger builds the daemon's slog.Logger on stdout in the requested
// format. Unknown formats are a flag error (exit 2), not a silent fallback.
func newLogger(format string, stdout io.Writer) (*slog.Logger, error) {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(stdout, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(stdout, nil)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text or json)", format)
	}
}

// Sesd runs the SES solver service until SIGINT/SIGTERM, then drains
// in-flight work and exits cleanly.
func Sesd(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sesd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		workers    = fs.Int("workers", 0, "solver pool size (0 = GOMAXPROCS)")
		queue      = fs.Int("queue", 64, "solver queue capacity; a full queue returns 429")
		cache      = fs.Int("cache", 256, "result cache capacity (entries)")
		jobTTL     = fs.Duration("job-ttl", 15*time.Minute, "how long finished sweep jobs stay pollable")
		jobCells   = fs.Int("job-cells", 256, "max cells (algorithms × k values) per sweep job")
		parallel   = fs.Int("parallel", 0, "scoring workers per solve (0 = sequential, -1 = all cores; keep workers × parallel near the core count)")
		maxBody    = fs.Int64("max-body-mb", 256, "request body limit in MiB (a 1M-user sparse upload at 5% density is ~600 MiB)")
		dataDir    = fs.String("data-dir", "", "durable data directory (WAL + snapshots, recovered on boot); empty = in-memory only")
		fsync      = fs.Bool("fsync", false, "fsync the WAL after every append (survives power loss, slower; SIGKILL loses nothing either way)")
		segBytes   = fs.Int64("segment-bytes", 64<<20, "WAL segment size before rolling to a new file")
		compact    = fs.Int("compact-every", 4096, "WAL records between snapshot compactions (bounds replay cost)")
		logFormat  = fs.String("log-format", "text", "structured log format: text or json")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty = disabled")
		traceStore = fs.Int("trace-store", 256, "completed request traces retained for /debug/traces")
		traceSlow  = fs.Duration("trace-slow", 0, "log traces at least this slow as one slow_trace line (0 = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	logger, err := newLogger(*logFormat, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "sesd: %v\n", err)
		return 2
	}
	// A durable store logs every accepted upload as one WAL record, whose
	// payload (the re-encoded instance document plus a small wrapper) is
	// capped at seio.MaxWALRecordBytes. A body limit above that cap would
	// admit uploads that then always fail WAL append with a 500; clamp it so
	// the misconfiguration is visible at startup rather than at the first
	// big PUT. (The re-encoded document can differ slightly in size from
	// the uploaded bytes, so this is a foot-gun guard, not a guarantee —
	// an upload whose re-encode still exceeds the record cap fails the PUT
	// with the WAL-append 500, same as before.)
	if *dataDir != "" {
		if limit := int64(seio.MaxWALRecordBytes>>20) - 1; *maxBody > limit {
			logger.Warn("clamping -max-body-mb to the durable WAL record cap",
				"requested_mb", *maxBody, "clamped_mb", limit)
			*maxBody = limit
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(stderr, "sesd", err)
	}
	// The pprof endpoints expose heap contents and CPU samples, so they get
	// their own listener (typically bound to localhost) instead of riding the
	// service port, and an explicit mux so nothing else leaks through
	// http.DefaultServeMux.
	var pprofServer *http.Server
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fail(stderr, "sesd", err)
		}
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofServer = &http.Server{Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		go func() { _ = pprofServer.Serve(pln) }()
		logger.Info("pprof listening", "addr", pln.Addr().String())
		defer pprofServer.Close()
	}
	// The listener opens before recovery and serves 503 "recovering" on
	// every route until the WAL replay completes, so orchestrators polling
	// /healthz keep the instance out of rotation during a long replay
	// instead of timing out on a closed port. handler is swapped to the
	// real server once New returns.
	// atomic.Value requires one concrete type across stores; box the handler.
	type handlerBox struct{ h http.Handler }
	var handler atomic.Value
	handler.Store(handlerBox{http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "recovering")
	})})
	// ReadHeaderTimeout bounds slowloris-style header trickling;
	// IdleTimeout reclaims abandoned keep-alive connections. No
	// ReadTimeout: large instance uploads over slow links are legitimate.
	hs := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			handler.Load().(handlerBox).h.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	logger.Info("sesd listening", "addr", ln.Addr().String())

	// Recovery (server.New replays the WAL) can take a while on a large
	// data dir; run it aside the signal context so SIGINT/SIGTERM still
	// stop the daemon mid-replay instead of being silently swallowed until
	// recovery completes. Replay only reads (plus the torn-tail truncation,
	// which is idempotent), so abandoning it is safe.
	type newResult struct {
		srv *server.Server
		err error
	}
	newc := make(chan newResult, 1)
	go func() {
		s, err := server.New(server.Config{
			Workers: *workers, Queue: *queue, CacheSize: *cache,
			JobTTL: *jobTTL, MaxJobCells: *jobCells, ScoreWorkers: *parallel,
			MaxBodyBytes: *maxBody << 20,
			DataDir:      *dataDir, Fsync: *fsync, SegmentBytes: *segBytes, CompactEvery: *compact,
			TraceStore: *traceStore, TraceSlow: *traceSlow,
			Logger: logger,
		})
		newc <- newResult{s, err}
	}()
	var srv *server.Server
	select {
	case r := <-newc:
		if r.err != nil {
			hs.Close()
			return fail(stderr, "sesd", r.err)
		}
		srv = r.srv
	case <-ctx.Done():
		logger.Info("sesd interrupted during recovery")
		hs.Close()
		// Release the recovery's resources whenever it finishes; the
		// process usually exits first, which works just as well.
		go func() {
			if r := <-newc; r.err == nil {
				r.srv.Close()
			}
		}()
		return 0
	}
	defer srv.Close()
	handler.Store(handlerBox{srv})
	if *dataDir != "" {
		if rec, ms := srv.Recovery(); rec != nil {
			logger.Info("sesd recovered",
				"data_dir", *dataDir,
				"snapshot_seq", rec.SnapshotSeq,
				"snapshot_records", rec.SnapshotRecords,
				"wal_records", rec.Records,
				"wal_segments", rec.Segments,
				"elapsed_ms", ms)
			if rec.TornBytes > 0 {
				logger.Warn("discarded a torn wal tail (crash mid-append)",
					"torn_bytes", rec.TornBytes)
			}
		}
	}

	select {
	case err := <-errc:
		return fail(stderr, "sesd", err)
	case <-ctx.Done():
	}
	logger.Info("sesd shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return fail(stderr, "sesd", err)
	}
	return 0
}
