package server

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	ses "repro"
	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/metrics/span"
	"repro/internal/persist"
	"repro/internal/seio"
	"repro/internal/sim"
)

// HealthStatus is the /healthz response body: enough for a probe to tell a
// fresh boot from a recovered one without parsing logs.
type HealthStatus struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Version, GoVersion and GitSHA identify the running build — the same
	// fields the sesd_build_info gauge carries as labels.
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	GitSHA    string `json:"git_sha"`
	// Durable reports whether a WAL is attached (-data-dir).
	Durable bool `json:"durable"`
	// Recovered is true when boot-time replay applied any prior state — a
	// snapshot, WAL records, or a torn tail it had to truncate.
	Recovered bool `json:"recovered"`
	// Recovery echoes what replay applied (snapshot used, segments/records
	// replayed); constant after startup, omitted memory-only.
	Recovery   *persist.RecoveryStats `json:"recovery,omitempty"`
	RecoveryMS float64                `json:"recovery_ms,omitempty"`
}

// handleHealthz reports readiness. New finishes WAL replay before it returns
// the Server, so a reachable handler IS a recovered one — the 503-recovering
// phase lives in cli.Sesd, which answers for the listener while New replays.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version, goVersion, gitSHA := buildInfo()
	h := HealthStatus{
		Status:        "ok",
		UptimeSeconds: time.Since(s.started).Seconds(),
		Version:       version,
		GoVersion:     goVersion,
		GitSHA:        gitSHA,
		Durable:       s.wal != nil,
	}
	if rec := s.recovery; rec != nil {
		h.Recovered = rec.SnapshotRecords > 0 || rec.Records > 0 || rec.TornBytes > 0
		h.Recovery = rec
		h.RecoveryMS = s.recoveryMS
	}
	writeJSON(w, http.StatusOK, h)
}

// handleStats renders the metric registry as one flat JSON object, series to
// value: the /metrics samples minus the histogram buckets.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	vals, err := s.reg.Values()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, vals)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Instances []seio.InstanceInfo `json:"instances"`
	}{s.store.List()})
}

// handlePut uploads an instance in the seio wire format (a sesgen document):
//
//	curl -X PUT --data-binary @instance.json localhost:8080/instances/friday
func (s *Server) handlePut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	inst, err := seio.ReadInstance(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	info, existed, err := s.store.Put(name, inst)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	code := http.StatusCreated
	if existed {
		// Replacing rewrites content under the same name: drop its
		// cached results and engines (new versions would miss anyway, but
		// stale entries would otherwise squat in the LRUs).
		s.cache.InvalidateInstance(name)
		s.engines.invalidate(name)
		code = http.StatusOK
	}
	writeJSON(w, code, info)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-SES-Store-Version", fmt.Sprint(info.Version))
	w.Header().Set("X-SES-Digest", info.Digest)
	if err := seio.WriteInstance(w, inst); err != nil {
		// Headers are already out; the truncated body is the best signal
		// left. This only happens when the client disconnects mid-write.
		return
	}
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	ok, err := s.store.Delete(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	if !ok {
		writeErr(w, http.StatusNotFound, ErrNotFound)
		return
	}
	s.cache.InvalidateInstance(name)
	s.engines.invalidate(name)
	w.WriteHeader(http.StatusNoContent)
}

// handleMutate applies a batch of interest/activity/competing updates as one
// new store version. In-flight solves keep their snapshot; the instance's
// cached results are invalidated.
//
// Both write routes trace the same stages as direct children of the request
// root, in order: decode, apply, digest, wal_append, publish, retire and
// encode.
func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	tr := span.FromContext(r.Context())
	sp := tr.Start("decode")
	var req seio.MutateRequest
	err := s.decodeBody(w, r, &req)
	sp.End()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Empty() {
		writeErr(w, http.StatusBadRequest, errors.New("empty mutation: nothing to apply"))
		return
	}
	info, err := s.store.Mutate(name, req, tr)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	sp = tr.Start("retire")
	s.afterMutation(name, info, req)
	sp.End()
	sp = tr.Start("encode")
	writeJSON(w, http.StatusOK, info)
	sp.End()
}

// runPooled runs work on the solver pool for an HTTP request and writes the
// reply: 429 when the queue is full, 503 during shutdown, 500 for a panicked
// run, 400 for a rejected one, and otherwise the run's body. A client that
// went away gets nothing.
func (s *Server) runPooled(w http.ResponseWriter, r *http.Request, run func() (any, error)) {
	var body any
	err := runOnPool(r.Context(), s.pool.Submit, func() (err error) {
		body, err = run()
		return err
	})
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, body)
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrPoolClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errSolverPanicked):
		writeErr(w, http.StatusInternalServerError, err)
	case r.Context().Err() != nil:
		// The client disconnected while the job was queued or running.
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

// solvePooled answers an HTTP solve or extend that missed the result cache:
// q runs on the pool and its response names the request's own trace.
func (s *Server) solvePooled(w http.ResponseWriter, r *http.Request, q solveRun) {
	s.runPooled(w, r, func() (any, error) {
		resp, _, err := s.solve(r.Context(), q)
		resp.TraceID = span.FromContext(r.Context()).ID()
		return resp, err
	})
}

// handleSolve runs one of the paper's algorithms against the current
// snapshot of the instance, with an O(1) fast path for repeated identical
// queries via the result cache.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req seio.SolveRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Algorithm == "" {
		req.Algorithm = "HOR-I"
	}
	if req.K <= 0 {
		writeErr(w, http.StatusBadRequest, algo.ErrBadK)
		return
	}
	if _, err := algo.New(req.Algorithm, 0); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	q := newSolveRun(name, inst, info, req.Algorithm, req.K, req.Seed,
		core.ScorerOptions{UserWeights: req.UserWeights, EventCost: req.EventCosts})
	// The request trace was minted by the instrument middleware and rides the
	// request context into the pool and the scoring engine, which books
	// batched-scoring time against it. Every span call is nil-safe, so
	// handlers invoked without the middleware (direct unit tests) still work.
	tr := span.FromContext(r.Context())
	tr.Annotate("instance", name)
	tr.Annotate("algorithm", req.Algorithm)
	if resp, ok := s.cached(q); ok {
		resp.TraceID = tr.ID()
		tr.Annotate("cache", "hit")
		writeJSON(w, http.StatusOK, resp)
		return
	}
	s.solvePooled(w, r, q)
}

// handleExtend grows a client-provided base schedule by extra greedy
// selections against the current snapshot (the organizer's re-planning
// workflow). Extend results depend on the arbitrary base, so they bypass the
// result cache.
func (s *Server) handleExtend(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req seio.ExtendRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Extra <= 0 {
		writeErr(w, http.StatusBadRequest, algo.ErrBadK)
		return
	}
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	base, err := (seio.ScheduleMsg{Version: seio.FormatVersion, Assignments: req.Base}).Replay(inst)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q := newSolveRun(name, inst, info, "EXTEND", req.Extra, 0,
		core.ScorerOptions{UserWeights: req.UserWeights, EventCost: req.EventCosts})
	q.base = base
	tr := span.FromContext(r.Context())
	tr.Annotate("instance", name)
	tr.Annotate("algorithm", "EXTEND")
	s.solvePooled(w, r, q)
}

// handleSimulate Monte-Carlo-validates a schedule against the analytic
// utility (internal/sim) on the current snapshot.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req seio.SimulateRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Trials <= 0 {
		req.Trials = 1000
	}
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	schedule, err := (seio.ScheduleMsg{Version: seio.FormatVersion, Assignments: req.Schedule}).Replay(inst)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	s.runPooled(w, r, func() (any, error) {
		res, err := sim.Simulate(inst, schedule, req.Trials, req.Seed)
		if err != nil {
			return nil, err
		}
		analytic := core.NewScorer(inst).Utility(schedule)
		relErr := 0.0
		if analytic > 0 {
			relErr = (res.MeanTotal - analytic) / analytic
		}
		return seio.SimulateResponse{
			Instance:       info,
			Trials:         req.Trials,
			Analytic:       analytic,
			Simulated:      res.MeanTotal,
			RelErr:         relErr,
			CompetingTotal: res.CompetingTotal,
			PerEvent:       res.PerEvent,
		}, nil
	})
}

// handleSummarize re-evaluates a schedule against the instance's current
// version and renders the organizer-facing report. It is cheap (one scorer
// pass per assignment), so it runs inline rather than on the pool.
func (s *Server) handleSummarize(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req seio.SummarizeRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	schedule, err := (seio.ScheduleMsg{Version: seio.FormatVersion, Assignments: req.Schedule}).Replay(inst)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	msg := seio.NewScheduleMsg(inst, schedule)
	writeJSON(w, http.StatusOK, seio.SummarizeResponse{
		Instance: info,
		Schedule: msg,
		Text:     ses.NewReport(msg).String(),
	})
}
