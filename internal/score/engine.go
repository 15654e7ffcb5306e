// Package score is the shared Eq. 4 scoring engine behind every scheduler in
// internal/algo. The paper's cost model prices one assignment score at one
// pass over all |U| users (Figures 5e–5h count exactly these passes); that
// pass is embarrassingly parallel across users, and the candidate frontiers
// the algorithms evaluate (ALG's full grid, HOR's per-layer rescore, TOP's
// one-shot grid) are embarrassingly parallel across candidates. The engine
// exploits both without changing a single reported number:
//
//   - An Engine wraps one core.Scorer built for one instance snapshot. The
//     scorer's construction is the O(|U|·|C|) dense precompute of the
//     per-interval competing-interest rows — paid once per Engine and
//     amortized across every evaluation (and, when the Engine is shared, as
//     sesd shares one per instance version, across whole runs).
//
//   - A reusable worker set (sized by the caller; GOMAXPROCS is the
//     sensible ceiling) fans work out. Workers
//     are plain goroutines draining a task channel; batches never queue
//     behind each other because the submitting goroutine always participates
//     in its own batch, so a saturated worker set degrades to sequential
//     execution instead of deadlocking or stalling.
//
//   - Results are bit-identical in every mode. All summation happens over
//     fixed user shards of chunkUsers entries reduced in shard order, so a
//     score does not depend on the worker count, on which goroutine computed
//     which shard, or on whether the sequential fallback ran. Schedulers
//     therefore make identical selections with parallelism on or off, which
//     the equality tests assert for all six algorithms.
//
//   - Cancellation is cooperative: ScoreBatch polls its context between
//     candidates, so ScheduleCtx's promptness contract (internal/algo)
//     survives the fan-out.
//
//   - Scores are memoized by interval prefix (memo.go), and a warm engine
//     built by NewFromPrevious inherits the entries a mutation left clean,
//     so a re-solve after a small edit recomputes almost nothing.
package score

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/metrics/span"
)

// errNoPrevious rejects a warm build with no engine to inherit from.
var errNoPrevious = errors.New("score: warm engine build without a previous engine")

const (
	// chunkUsers is the fixed user-shard width. Fixed — not derived from
	// the worker count — so partial sums and their reduction order are a
	// function of |U| alone, which is what makes parallel, sequential and
	// single-worker scores bit-identical. 8192 float32 reads per shard is
	// comfortably past the point where goroutine handoff (~1µs) is noise.
	// The width is owned by core (the sparse loop precomputes its nonzero
	// offsets per shard of this grid).
	chunkUsers = core.ShardUsers

	// singleParallelUsers is the minimum |U| before ONE evaluation fans its
	// user pass out. Below it a sequential pass completes in the time the
	// fan-out costs (the old core parallelThreshold, kept).
	singleParallelUsers = 1 << 16

	// batchParallelWork is the minimum candidates × users before a batch
	// fans out across candidates. Small frontiers on small instances run
	// faster on the caller's goroutine than through the task channel.
	batchParallelWork = 1 << 15

	// ctxCheckEvery amortizes context polling in the sequential batch loop,
	// mirroring the schedulers' own guard cadence.
	ctxCheckEvery = 32

	// maxWorkers is a sanity cap on the worker set. The caller picks the
	// count (GOMAXPROCS is the sensible ceiling — see DefaultWorkers);
	// the cap only guards against absurd requests.
	maxWorkers = 256

	// gridMaxCells bounds the prefix memo (memo.go): its rows together hold
	// at most this many cells (32 MB of scores); past it new prefixes are
	// computed without being stored rather than ballooning every engine.
	// Paper-scale empty-schedule grids are ≤ 4.5M cells; sesd instances are
	// far smaller (the user dimension is the big one, and it is not cached).
	gridMaxCells = 1 << 22
)

// DefaultWorkers is the recommended worker count for a dedicated machine:
// one per schedulable core. CLIs map "-parallel -1" to it.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Candidate is one assignment α_e^t to score.
type Candidate struct {
	Event    int
	Interval int
}

// Engine is a reusable scoring engine for one instance snapshot. An Engine is
// safe for concurrent use: multiple solves may share one Engine (sesd shares
// one per instance version) and issue overlapping batches; the worker set is
// shared and work-stealing, so concurrent batches interleave instead of
// serializing.
//
// Close releases the worker goroutines. Calls must not overlap Close; owners
// (a scheduler run, or the server's refcounted engine cache) close only after
// every user of the Engine has finished.
type Engine struct {
	sc      *core.Scorer
	inst    *core.Instance
	workers int
	tasks   chan func()
	sink    *Sink

	closeOnce sync.Once

	// The prefix memo (memo.go): rows keyed by an interval and the ordered
	// events a schedule assigned to it, each holding exact scoreShards bits
	// per event. Score and ScoreBatch serve from it on any schedule, later
	// runs on a shared engine reuse it, and NewFromPrevious carries its
	// clean rows across a mutation. memoCells is Σ row widths.
	memoMu    sync.RWMutex
	memo      map[string]*memoRow
	memoCells atomic.Int64

	evals    atomic.Int64
	batches  atomic.Int64
	fanouts  atomic.Int64
	gridHits atomic.Int64
}

// Sink is an optional set of shared telemetry instruments an engine reports
// into, on top of its private Stats counters. sesd wires one Sink into every
// engine of its cache so engine churn (LRU eviction, per-version rebuilds)
// never resets the exported time series. Instrument fields may be nil
// (nil-safe no-ops); a nil Sink disables reporting entirely. Reporting adds
// one atomic per counted event and one clock read per batch — it never
// touches the scoring arithmetic, so results stay bit-identical.
type Sink struct {
	// Evals counts Eq. 4 evaluations; Batches counts ScoreBatch calls that
	// ran to completion; Fanouts counts evaluations/batches that engaged the
	// worker set.
	Evals   *metrics.Counter
	Batches *metrics.Counter
	Fanouts *metrics.Counter
	// GridHits counts evaluations served from the prefix memo instead of
	// being recomputed (warm re-solve's and shared engines' saved work).
	GridHits *metrics.Counter
	// BatchCandidates observes the candidate-frontier width of each batch
	// (the per-batch shard fan-out the schedulers request); BatchSeconds
	// observes each batch's wall time.
	BatchCandidates *metrics.Histogram
	BatchSeconds    *metrics.Histogram
}

// SetSink attaches the shared telemetry sink. Call before the engine is
// shared across goroutines (sesd sets it right after construction); a nil
// sink keeps reporting off.
func (en *Engine) SetSink(s *Sink) { en.sink = s }

// New builds an engine for the instance, precomputing the dense per-interval
// competition rows. opts.Workers sizes the worker set: ≤ 1 means sequential,
// and the scoring pass is CPU-bound so counts beyond GOMAXPROCS (see
// DefaultWorkers) buy nothing but contention. The count is honored as given
// — results are bit-identical for every worker count, so oversubscription is
// a performance choice, never a correctness one.
func New(inst *core.Instance, opts core.ScorerOptions) (*Engine, error) {
	sc, err := core.NewScorerWithOptions(inst, opts)
	if err != nil {
		return nil, err
	}
	return newEngine(sc, inst, opts.Workers), nil
}

// newEngine wraps a built scorer with a worker set of the requested size.
func newEngine(sc *core.Scorer, inst *core.Instance, workers int) *Engine {
	w := workers
	if w < 1 {
		w = 1
	}
	if w > maxWorkers {
		w = maxWorkers
	}
	en := &Engine{sc: sc, inst: inst, workers: w}
	if w > 1 {
		// w-1 helper goroutines: the goroutine that submits a batch always
		// works on it too, so w workers participate in a lone batch.
		en.tasks = make(chan func(), w)
		for i := 0; i < w-1; i++ {
			go en.work()
		}
	}
	return en
}

// NewFromPrevious builds an engine for inst warm: the scorer reuses the
// clean parts of prev's precompute (core.NewScorerFromDelta) and the prefix
// memo carries over the rows prev used, minus what the delta dirtied (see
// carryMemo). The warm engine is bit-identical to New(inst, opts) in every
// output: shared state is immutable, rebuilt state runs the cold
// construction, and surviving memo entries are exact because their operands
// (the event's and the prefix's interest columns, the interval's activity
// column and competing sum, the cost) are untouched by the mutation.
//
// prev must be the engine of the predecessor snapshot built with the same
// options values; on any mismatch an error is returned and the caller
// should fall back to New. prev stays usable (and must still be Closed by
// its owner).
func NewFromPrevious(prev *Engine, inst *core.Instance, opts core.ScorerOptions, d core.ScorerDelta) (*Engine, error) {
	if prev == nil {
		return nil, errNoPrevious
	}
	sc, err := core.NewScorerFromDelta(prev.sc, inst, opts, d)
	if err != nil {
		return nil, err
	}
	en := newEngine(sc, inst, opts.Workers)
	en.carryMemo(prev, d)
	return en, nil
}

func (en *Engine) work() {
	for fn := range en.tasks {
		fn()
	}
}

// offer hands fn to an idle helper without blocking. When the worker set is
// saturated by concurrent batches the caller keeps the work — progress never
// depends on a helper being free.
func (en *Engine) offer(fn func()) bool {
	select {
	case en.tasks <- fn:
		return true
	default:
		return false
	}
}

// Close stops the worker goroutines. Idempotent.
func (en *Engine) Close() {
	en.closeOnce.Do(func() {
		if en.tasks != nil {
			close(en.tasks)
		}
	})
}

// Instance returns the instance snapshot the engine scores against.
func (en *Engine) Instance() *core.Instance { return en.inst }

// Scorer exposes the wrapped scorer for the non-hot-path evaluations that
// never fan out (Utility, Rho, EventAttendance).
func (en *Engine) Scorer() *core.Scorer { return en.sc }

// Workers returns the effective worker count (1 = sequential).
func (en *Engine) Workers() int { return en.workers }

// Utility computes Ω(S) (Eq. 3). One pass per non-empty interval; never
// parallelized, so it is the same bits in every mode.
func (en *Engine) Utility(s *core.Schedule) float64 { return en.sc.Utility(s) }

// scoreShards is the canonical evaluation: the Eq. 4 user pass over fixed
// shards reduced in shard order, minus the event cost. Every path through the
// engine — sequential, batched, user-sharded — bottoms out here or reproduces
// exactly this sum.
func (en *Engine) scoreShards(s *core.Schedule, e, t int) float64 {
	nU := en.inst.NumUsers()
	gain := 0.0
	for lo := 0; lo < nU; lo += chunkUsers {
		hi := lo + chunkUsers
		if hi > nU {
			hi = nU
		}
		gain += en.sc.ScoreUsers(s, e, t, lo, hi)
	}
	return gain - en.sc.AssignCost(e)
}

// Score evaluates one assignment score (Eq. 4) against schedule s, served
// from the prefix memo when t's prefix has it. With workers and a large
// enough user dimension a computed pass is sharded across the worker set;
// the result is bit-identical either way. Score is the primitive for the
// sequentially-dependent passes (INC's and HOR-I's incremental updates,
// whose decision to evaluate a candidate depends on the previous result);
// independent frontiers should use ScoreBatch.
func (en *Engine) Score(s *core.Schedule, e, t int) float64 {
	r := en.rowFor(s, t)
	if r != nil {
		if v, ok := r.get(e); ok {
			en.countHits(1)
			return v
		}
	}
	var v float64
	if en.workers > 1 && en.inst.NumUsers() >= singleParallelUsers {
		v = en.scoreSharded(s, e, t)
	} else {
		en.evals.Add(1)
		if sk := en.sink; sk != nil {
			sk.Evals.Inc()
		}
		v = en.scoreShards(s, e, t)
	}
	if r != nil {
		r.put(e, v)
	}
	return v
}

// countHits accounts n evaluations served from the memo.
func (en *Engine) countHits(n int) {
	en.gridHits.Add(int64(n))
	if sk := en.sink; sk != nil {
		sk.GridHits.Add(int64(n))
	}
}

// scoreSharded fans one evaluation's user shards across the worker set and
// reduces the partials in shard order.
func (en *Engine) scoreSharded(s *core.Schedule, e, t int) float64 {
	en.fanouts.Add(1)
	if sk := en.sink; sk != nil {
		sk.Fanouts.Inc()
		sk.Evals.Inc()
	}
	nU := en.inst.NumUsers()
	nShards := (nU + chunkUsers - 1) / chunkUsers
	partial := make([]float64, nShards)
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= nShards {
				return
			}
			lo := i * chunkUsers
			hi := lo + chunkUsers
			if hi > nU {
				hi = nU
			}
			partial[i] = en.sc.ScoreUsers(s, e, t, lo, hi)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < en.workers-1; i++ {
		wg.Add(1)
		if !en.offer(func() { defer wg.Done(); run() }) {
			wg.Done()
			break // saturated: the shards left run on this goroutine
		}
	}
	run()
	wg.Wait()
	gain := 0.0
	for _, p := range partial {
		gain += p
	}
	en.evals.Add(1)
	return gain - en.sc.AssignCost(e)
}

// ScoreBatch evaluates M candidate assignments against the current partial
// schedule in one fan-out, writing cands[i]'s score to out[i]. This is how
// the schedulers evaluate whole candidate frontiers: one call scores ALG's
// initial |E|×|T| grid or HOR's per-layer rescore with the user dimension's
// work spread across the worker set (parallelism across candidates — each
// out[i] is written by exactly one goroutine, so no accumulation races and
// no float reassociation).
//
// The context is polled between candidates; on cancellation ScoreBatch
// returns ctx.Err() promptly and out holds a mix of fresh and stale values
// the caller must discard. A nil error means every candidate was scored and
// the caller may account len(cands) evaluations.
func (en *Engine) ScoreBatch(ctx context.Context, s *core.Schedule, cands []Candidate, out []float64) error {
	if len(out) < len(cands) {
		panic("score: ScoreBatch output buffer shorter than candidate list")
	}
	// Stage timing: a request-scoped trace riding ctx (span.FromContext) gets
	// the batch's wall time attributed to its "score" stage, and the shared
	// sink observes batch width and duration. Both are off (two nil checks)
	// for bench and CLI runs, and neither touches the scoring arithmetic.
	tr := span.FromContext(ctx)
	var batchStart time.Time
	if tr != nil || en.sink != nil {
		batchStart = time.Now()
	}
	defer func() {
		if batchStart.IsZero() {
			return
		}
		d := time.Since(batchStart)
		tr.Add("score", d)
		if sk := en.sink; sk != nil {
			sk.BatchSeconds.Observe(d.Seconds())
			sk.BatchCandidates.Observe(float64(len(cands)))
		}
	}()
	if err := en.scoreBatchMemo(ctx, s, cands, out); err != nil {
		return err
	}
	en.batches.Add(1)
	if sk := en.sink; sk != nil {
		sk.Batches.Inc()
	}
	return nil
}

// scoreBatchMemo serves a frontier from the prefix memo, computing (and
// storing) only the entries not yet known. Values are the exact bits
// scoreBatchCompute would produce: a memoized entry IS a previous scoreShards
// result over operands that have not changed since.
func (en *Engine) scoreBatchMemo(ctx context.Context, s *core.Schedule, cands []Candidate, out []float64) error {
	nT := en.inst.NumIntervals()
	rows := make([]*memoRow, nT)
	looked := make([]bool, nT)
	var miss []int
	for i, cd := range cands {
		t := cd.Interval
		if !looked[t] {
			rows[t], looked[t] = en.rowFor(s, t), true
		}
		if r := rows[t]; r != nil {
			if v, ok := r.get(cd.Event); ok {
				out[i] = v
				continue
			}
		}
		miss = append(miss, i)
	}
	if hits := len(cands) - len(miss); hits > 0 {
		en.countHits(hits)
	}
	if len(miss) == 0 {
		return ctx.Err()
	}
	mc := make([]Candidate, len(miss))
	mo := make([]float64, len(miss))
	for j, i := range miss {
		mc[j] = cands[i]
	}
	if err := en.scoreBatchCompute(ctx, s, mc, mo); err != nil {
		return err
	}
	for j, i := range miss {
		out[i] = mo[j]
		if r := rows[mc[j].Interval]; r != nil {
			r.put(mc[j].Event, mo[j])
		}
	}
	return nil
}

// scoreBatchCompute is the computing path: every candidate is evaluated by
// scoreShards, sequentially or fanned out across the worker set.
func (en *Engine) scoreBatchCompute(ctx context.Context, s *core.Schedule, cands []Candidate, out []float64) error {
	nU := en.inst.NumUsers()
	if en.workers <= 1 || len(cands) < 2 || len(cands)*nU < batchParallelWork {
		for i, cd := range cands {
			if i%ctxCheckEvery == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			out[i] = en.scoreShards(s, cd.Event, cd.Interval)
		}
	} else {
		en.fanouts.Add(1)
		if sk := en.sink; sk != nil {
			sk.Fanouts.Inc()
		}
		var next atomic.Int64
		run := func() {
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(cands) {
					return
				}
				out[i] = en.scoreShards(s, cands[i].Event, cands[i].Interval)
			}
		}
		helpers := en.workers - 1
		if helpers > len(cands)-1 {
			helpers = len(cands) - 1
		}
		var wg sync.WaitGroup
		for i := 0; i < helpers; i++ {
			wg.Add(1)
			if !en.offer(func() { defer wg.Done(); run() }) {
				wg.Done()
				break // saturated: remaining candidates run on this goroutine
			}
		}
		run()
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	en.evals.Add(int64(len(cands)))
	if sk := en.sink; sk != nil {
		sk.Evals.Add(int64(len(cands)))
	}
	return nil
}

// Stats is a point-in-time view of the engine's work, surfaced by sesd's
// /stats. Evals counts Eq. 4 evaluations performed (batch or single);
// Fanouts counts the evaluations/batches that actually engaged the worker
// set, so Fanouts ≪ Batches means the workload stayed under the parallel
// thresholds.
type Stats struct {
	Workers int   `json:"workers"`
	Evals   int64 `json:"evals"`
	Batches int64 `json:"batches"`
	Fanouts int64 `json:"fanouts"`
	// GridHits counts evaluations served from the prefix memo: work a warm
	// engine (or a later run on a shared one) skipped. Evals counts only
	// computed passes, so a scheduler's reported ScoreEvals for one run
	// equals the engine-side evals+gridHits delta.
	GridHits int64 `json:"grid_hits,omitempty"`
}

// Stat samples the engine counters.
func (en *Engine) Stat() Stats {
	return Stats{
		Workers:  en.workers,
		Evals:    en.evals.Load(),
		Batches:  en.batches.Load(),
		Fanouts:  en.fanouts.Load(),
		GridHits: en.gridHits.Load(),
	}
}
