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
	"repro/internal/score"
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

// runPooled submits work to the solver pool and waits for it or for the
// client to go away. It writes the 429/backpressure responses itself and
// reports whether the caller should write a response (false = already
// handled or client gone).
func (s *Server) runPooled(w http.ResponseWriter, r *http.Request, run func()) bool {
	done := make(chan struct{})
	var panicked any
	// The queue span measures enqueue-to-pickup. A rejected or skipped job
	// never ends it; the trace snapshot clamps the open span to the trace
	// end, which is exactly how long the request was stuck behind the queue.
	qs := span.FromContext(r.Context()).Start("queue")
	err := s.pool.Submit(r.Context(), func() {
		qs.End()
		defer close(done)
		// A panicking solver must cost this request a 500, not the
		// daemon its life (and with it the memory-only store).
		defer func() { panicked = recover() }()
		run()
	})
	switch {
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, err)
		return false
	case errors.Is(err, ErrPoolClosed):
		writeErr(w, http.StatusServiceUnavailable, err)
		return false
	case err != nil: // request context already dead
		return false
	}
	select {
	case <-done:
		if panicked != nil {
			s.pool.panics.Add(1)
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("solver panicked: %v", panicked))
			return false
		}
		return true
	case <-r.Context().Done():
		// The client disconnected while the job was queued or running;
		// the worker (if it runs) writes into thin air harmlessly since
		// the response writer is dead anyway.
		return false
	}
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
	opts := core.ScorerOptions{UserWeights: req.UserWeights, EventCost: req.EventCosts}
	sched, err := algo.NewWithOptions(req.Algorithm, req.Seed, opts)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	key := cacheKey{
		name:      name,
		version:   info.Version,
		algorithm: req.Algorithm,
		k:         req.K,
		seed:      seedKeyFor(req.Algorithm, req.Seed),
		opts:      optsFingerprint(req.UserWeights, req.EventCosts),
	}
	// The request trace was minted by the instrument middleware and rides the
	// request context into the pool and the scoring engine, which books
	// batched-scoring time against it. Every span call is nil-safe, so
	// handlers invoked without the middleware (direct unit tests) still work.
	tr := span.FromContext(r.Context())
	tr.Annotate("instance", name)
	tr.Annotate("algorithm", req.Algorithm)
	if resp, ok := s.cache.Get(key); ok {
		resp.Cached = true
		resp.TraceID = tr.ID()
		tr.Annotate("cache", "hit")
		writeJSON(w, http.StatusOK, resp)
		return
	}
	var (
		resp   seio.SolveResponse
		slvErr error
	)
	if !s.runPooled(w, r, func() {
		// Solves of one instance version share one scoring engine: the
		// dense precompute and (with ScoreWorkers) the scoring worker set
		// are paid once per version, not per request.
		acq := tr.Start("engine_acquire")
		en, releaseEngine, reused, err := s.engines.acquire(
			engineKey{name: name, version: info.Version, opts: key.opts}, inst, opts)
		acq.Annotate("engine", engineTemp(reused))
		acq.End()
		if err != nil {
			slvErr = err
			return
		}
		defer releaseEngine()
		// The request's context rides into the solver: a client that
		// disconnects mid-solve frees its worker at the next periodic
		// cancellation check instead of holding it to completion.
		res, err := algo.WithEngine(sched, en).ScheduleCtx(r.Context(), inst, req.K)
		if err != nil {
			slvErr = err
			return
		}
		s.scoreEvals.Add(res.ScoreEvals)
		s.examined.Add(res.Examined)
		bookSelect(tr, res.Elapsed)
		enc := tr.Start("encode")
		msg := scheduleMsg(en, res)
		enc.End()
		resp = seio.SolveResponse{
			Instance:   info,
			Algorithm:  req.Algorithm,
			K:          req.K,
			Schedule:   msg,
			ScoreEvals: res.ScoreEvals,
			Examined:   res.Examined,
			ElapsedMS:  seio.DurationMS(res.Elapsed),
		}
		// Cache and log the response WITHOUT the trace ID: a cached or
		// replayed response must not present another run's identity as its own.
		s.cache.Put(key, resp)
		s.appendSolveRecord(key, resp)
		resp.TraceID = tr.ID()
	}) {
		return
	}
	if slvErr != nil {
		writeErr(w, http.StatusBadRequest, slvErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// bookSelect books the "select" aggregate against the trace: the remainder of
// the solver's elapsed time after batched frontier scoring (candidate
// enumeration, argmax selection, and any scoring done outside batched calls).
// Clamped at zero because parallel scoring can book more stage time than wall
// time.
func bookSelect(tr *span.Trace, solveElapsed time.Duration) {
	selectD := solveElapsed - tr.Get("score")
	if selectD < 0 {
		selectD = 0
	}
	tr.Add("select", selectD)
}

// scheduleMsg builds a solved schedule's wire message from the engine that
// produced it — the one response encoding of solve, extend, subscribe pushes
// and sweep cells. Messages report the plain Eq. 2/Eq. 3 values, so it
// evaluates on the engine scorer's plain view and reuses the solve's utility
// (algo.Result.Utility is en.Utility) whenever that view is the scorer
// itself; only a weighted or costed engine pays a plain Utility pass.
func scheduleMsg(en *score.Engine, res *algo.Result) seio.ScheduleMsg {
	sc := en.Scorer()
	plain := sc.Plain()
	utility := res.Utility
	if plain != sc {
		utility = plain.Utility(res.Schedule)
	}
	return seio.ScheduleMsgFrom(plain, res.Schedule, utility)
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
	opts := core.ScorerOptions{UserWeights: req.UserWeights, EventCost: req.EventCosts}
	tr := span.FromContext(r.Context())
	tr.Annotate("instance", name)
	tr.Annotate("algorithm", "EXTEND")
	var (
		resp   seio.SolveResponse
		extErr error
	)
	if !s.runPooled(w, r, func() {
		acq := tr.Start("engine_acquire")
		en, releaseEngine, reused, err := s.engines.acquire(
			engineKey{name: name, version: info.Version, opts: optsFingerprint(req.UserWeights, req.EventCosts)},
			inst, opts)
		acq.Annotate("engine", engineTemp(reused))
		acq.End()
		if err != nil {
			extErr = err
			return
		}
		defer releaseEngine()
		res, err := algo.ExtendWithEngine(r.Context(), en, base, req.Extra)
		if err != nil {
			extErr = err
			return
		}
		s.scoreEvals.Add(res.ScoreEvals)
		s.examined.Add(res.Examined)
		bookSelect(tr, res.Elapsed)
		enc := tr.Start("encode")
		msg := scheduleMsg(en, res)
		enc.End()
		resp = seio.SolveResponse{
			Instance:   info,
			Algorithm:  "EXTEND",
			K:          req.Extra,
			Schedule:   msg,
			ScoreEvals: res.ScoreEvals,
			Examined:   res.Examined,
			ElapsedMS:  seio.DurationMS(res.Elapsed),
			TraceID:    tr.ID(),
		}
	}) {
		return
	}
	if extErr != nil {
		writeErr(w, http.StatusBadRequest, extErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
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
	var (
		resp   seio.SimulateResponse
		simErr error
	)
	if !s.runPooled(w, r, func() {
		res, err := sim.Simulate(inst, schedule, req.Trials, req.Seed)
		if err != nil {
			simErr = err
			return
		}
		analytic := core.NewScorer(inst).Utility(schedule)
		relErr := 0.0
		if analytic > 0 {
			relErr = (res.MeanTotal - analytic) / analytic
		}
		resp = seio.SimulateResponse{
			Instance:       info,
			Trials:         req.Trials,
			Analytic:       analytic,
			Simulated:      res.MeanTotal,
			RelErr:         relErr,
			CompetingTotal: res.CompetingTotal,
			PerEvent:       res.PerEvent,
		}
	}) {
		return
	}
	if simErr != nil {
		writeErr(w, http.StatusBadRequest, simErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
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
