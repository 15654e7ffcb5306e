package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/metrics/span"
	"repro/internal/score"
	"repro/internal/seio"
)

// errSolverPanicked marks a run that panicked on a pool worker; HTTP routes
// answer it with a 500 instead of a 400.
var errSolverPanicked = errors.New("solver panicked")

// solveRun is one schedule computation against a pinned instance version: a
// fresh schedule of key.k assignments by key.algorithm or, with base set, an
// extension of base by key.k greedy picks.
type solveRun struct {
	// key is the run's result-cache entry. Its seed is also the scheduler's:
	// only RAND reads one, and seedKeyFor keeps RAND's.
	key  cacheKey
	inst *core.Instance
	info seio.InstanceInfo
	opts core.ScorerOptions
	// base, when set, makes the run an extend. Extend results depend on the
	// arbitrary base, so they bypass the result cache and the solve WAL.
	base *core.Schedule
}

// newSolveRun pins a run of algorithm at k to the given snapshot of the named
// instance; it is the one place a solve's cache key is built.
func newSolveRun(name string, inst *core.Instance, info seio.InstanceInfo, algorithm string, k int, seed uint64, opts core.ScorerOptions) solveRun {
	return solveRun{
		key: cacheKey{
			name:      name,
			version:   info.Version,
			algorithm: algorithm,
			k:         k,
			seed:      seedKeyFor(algorithm, seed),
			opts:      optsFingerprint(opts.UserWeights, opts.EventCost),
		},
		inst: inst,
		info: info,
		opts: opts,
	}
}

// cached answers q from the result cache, marked as served from it. HTTP
// solves and pushes look here before they take a pool slot, and pushes and
// sweep cells before they mint a trace, so a hit costs neither.
func (s *Server) cached(q solveRun) (seio.SolveResponse, bool) {
	resp, ok := s.cache.Get(q.key)
	resp.Cached = ok
	return resp, ok
}

// solve is sesd's one solve path: HTTP solve and extend, subscribe pushes and
// sweep cells all run it on a pool worker, after their own admission and,
// for a cacheable run, their own cache check. It books against the trace on
// ctx, in order: engine_acquire (annotated engine=cold|warm), score and
// evaluate (booked by the engine), select, encode, release (the schedule's
// interest sums back to the engine) and, for a cacheable run, wal_append
// (the result-cache insert plus the solve's WAL record). The
// response carries no trace ID: a cached or replayed response must not
// present another run's identity as its own. warm reports whether the engine
// came from the engine cache or a warm rebuild.
//
// A panicking solver costs its run an errSolverPanicked error, not the
// daemon its life (and with it the memory-only store).
func (s *Server) solve(ctx context.Context, q solveRun) (resp seio.SolveResponse, warm bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.pool.panics.Add(1)
			resp, warm, err = seio.SolveResponse{}, false, fmt.Errorf("%w: %v", errSolverPanicked, r)
		}
	}()
	tr := span.FromContext(ctx)
	// Solves of one instance version share one scoring engine: the dense
	// precompute and (with ScoreWorkers) the scoring worker set are paid once
	// per version, not per request.
	acq := tr.Start("engine_acquire")
	en, release, warm, err := s.engines.acquire(
		engineKey{name: q.key.name, version: q.key.version, opts: q.key.opts}, q.inst, q.opts)
	acq.Annotate("engine", engineTemp(warm))
	acq.End()
	if err != nil {
		return seio.SolveResponse{}, false, err
	}
	defer release()
	// ctx rides into the solver: a caller that goes away mid-solve frees its
	// worker at the next periodic cancellation check.
	var res *algo.Result
	if q.base != nil {
		res, err = algo.ExtendWithEngine(ctx, en, q.base, q.key.k)
	} else {
		var sched algo.Scheduler
		if sched, err = algo.NewWithEngine(q.key.algorithm, q.key.seed, en); err == nil {
			res, err = sched.ScheduleCtx(ctx, q.inst, q.key.k)
		}
	}
	if err != nil {
		return seio.SolveResponse{}, false, err
	}
	s.scoreEvals.Add(res.ScoreEvals)
	s.examined.Add(res.Examined)
	bookSelect(tr, res.Elapsed)
	enc := tr.Start("encode")
	msg := scheduleMsg(en, res)
	enc.End()
	// The message holds everything the response needs; the schedule's
	// interest sums go back to the engine for its lineage's next solve.
	rel := tr.Start("release")
	res.Schedule.Release()
	rel.End()
	resp = seio.SolveResponse{
		Instance:   q.info,
		Algorithm:  q.key.algorithm,
		K:          q.key.k,
		Schedule:   msg,
		ScoreEvals: res.ScoreEvals,
		Examined:   res.Examined,
		ElapsedMS:  seio.DurationMS(res.Elapsed),
	}
	if q.base == nil {
		// Warm or cold, the result is bit-identical, so it is a first-class
		// citizen of the result cache and the solve WAL.
		wal := tr.Start("wal_append")
		s.cache.Put(q.key, resp)
		s.appendSolveRecord(q.key, resp)
		wal.End()
	}
	return resp, warm, nil
}

// bookSelect books solve's "select" aggregate against the trace: the
// remainder of the solver's elapsed time after batched frontier scoring and
// the final evaluation pass (candidate enumeration, argmax selection, and any
// scoring done outside batched calls). Clamped at zero because parallel
// scoring can book more stage time than wall time.
func bookSelect(tr *span.Trace, solveElapsed time.Duration) {
	selectD := solveElapsed - tr.Get("score") - tr.Get("evaluate")
	if selectD < 0 {
		selectD = 0
	}
	tr.Add("select", selectD)
}

// scheduleMsg builds a solved schedule's wire message from the engine that
// produced it; solve calls it for every route, so it is sesd's one response
// encoding. Messages report the plain Eq. 2/Eq. 3 values, so it formats the
// solve's own evaluation (algo.Result.Utility and Attendance) whenever the
// engine's scorer is its plain view; only a weighted or costed engine pays
// one plain Evaluate pass.
func scheduleMsg(en *score.Engine, res *algo.Result) seio.ScheduleMsg {
	sc := en.Scorer()
	if plain := sc.Plain(); plain != sc {
		utility, attendance := plain.Evaluate(res.Schedule)
		return seio.ScheduleMsgFrom(res.Schedule, utility, attendance)
	}
	return seio.ScheduleMsgFrom(res.Schedule, res.Utility, res.Attendance)
}

// runOnPool hands fn to the pool through submit (Pool.Submit, or
// Pool.SubmitWait for a caller that owns its goroutine and wants the queue to
// pace it) and waits for it, booking the wait for a worker as the "queue"
// span of the trace on ctx. It returns the submit error, ctx's error when the
// caller stopped waiting, errSolverPanicked when fn panicked past its own
// recover into the pool's backstop, or else fn's error.
func runOnPool(ctx context.Context, submit func(context.Context, func()) error, fn func() error) error {
	done := make(chan struct{})
	ran := false
	var err error
	// A rejected or skipped job never ends the queue span; the trace snapshot
	// clamps the open span to the trace end, which is exactly how long the
	// request was stuck behind the queue.
	qs := span.FromContext(ctx).Start("queue")
	if serr := submit(ctx, func() {
		qs.End()
		defer close(done)
		err = fn()
		ran = true
	}); serr != nil {
		return serr
	}
	select {
	case <-done:
		if !ran {
			return errSolverPanicked
		}
		return err
	case <-ctx.Done():
		// The worker (if it runs) finishes into thin air.
		return ctx.Err()
	}
}
