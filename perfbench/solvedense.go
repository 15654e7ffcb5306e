package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/metrics/span"
	"repro/internal/score"
	"repro/internal/seio"
)

// solve-dense is the paper's experiment: cold solves of the four greedy
// algorithms on a dense Table 1 Zip instance, one caller in a closed loop,
// each solve with a fresh two-worker engine as ses.Solve builds one. The
// fixed instance lets every solve be checked against the values recorded in
// denseGoldens; the seed orders the algorithm rotation.

// denseWorkers is the engine worker count of every solve-dense solve.
const denseWorkers = 2

// denseAlgorithms are the paper's four greedy algorithms.
var denseAlgorithms = []string{"ALG", "INC", "HOR", "HOR-I"}

// denseReference names the algorithm whose schedule each algorithm must
// reproduce bit for bit: INC ≡ ALG (Prop. 3) and HOR-I ≡ HOR (Prop. 6).
var denseReference = map[string]string{"ALG": "ALG", "INC": "ALG", "HOR": "HOR", "HOR-I": "HOR"}

// denseGolden is the recorded output of one algorithm on the solve-dense
// instance.
type denseGolden struct {
	utility  float64
	evals    int64
	examined int64
	schedule string // assignments in selection order, "e<event>@t<interval>"
}

func (g denseGolden) String() string {
	return fmt.Sprintf("{utility: %v, evals: %d, examined: %d, schedule: %q}", g.utility, g.evals, g.examined, g.schedule)
}

// denseGoldens holds the outputs recorded from the commit that introduced
// the benchmark, per (|U|, k) instance size.
var denseGoldens = map[[2]int]map[string]denseGolden{
	{20000, 20}: {
		"ALG":   {utility: 53990.145072294574, evals: 2706, examined: 31250, schedule: "e16@t7,e54@t1,e3@t3,e0@t22,e17@t25,e52@t0,e20@t19,e22@t2,e43@t10,e45@t21,e46@t24,e6@t20,e11@t10,e48@t19,e26@t8,e8@t20,e14@t2,e35@t24,e7@t21,e5@t26"},
		"INC":   {utility: 53990.145072294574, evals: 2545, examined: 22113},
		"HOR":   {utility: 53250.68222277764, evals: 1800, examined: 467, schedule: "e16@t7,e54@t1,e3@t3,e0@t22,e17@t25,e52@t0,e20@t19,e22@t2,e43@t10,e45@t21,e46@t24,e6@t20,e11@t8,e48@t26,e26@t12,e14@t18,e8@t27,e35@t16,e2@t6,e5@t5"},
		"HOR-I": {utility: 53250.68222277764, evals: 1800, examined: 791},
	},
	// The smoke test's size.
	{400, 6}: {
		"ALG":   {utility: 590.5233750195915, evals: 237, examined: 912, schedule: "e10@t4,e16@t5,e11@t3,e12@t1,e6@t8,e17@t6"},
		"INC":   {utility: 590.5233750195915, evals: 237, examined: 795},
		"HOR":   {utility: 590.5233750195915, evals: 162, examined: 52, schedule: "e10@t4,e16@t5,e11@t3,e12@t1,e6@t8,e17@t6"},
		"HOR-I": {utility: 590.5233750195915, evals: 162, examined: 75},
	},
}

// denseRun is one solve with the engine's view of its work.
type denseRun struct {
	res        *algo.Result
	stat       score.Stats
	candidates float64 // batched candidates, traced solves only
}

// denseSolve runs one cold solve with a fresh engine. A non-nil trace rides
// the context so the engine books its batched scoring time against it, and
// gets spans around the engine build and the solve.
func denseSolve(ctx context.Context, inst *core.Instance, alg string, k int, tr *span.Trace) (denseRun, error) {
	sched, err := algo.NewWithOptions(alg, 1, core.ScorerOptions{Workers: denseWorkers})
	if err != nil {
		return denseRun{}, err
	}
	build := tr.Start("score.New")
	en, err := score.New(inst, core.ScorerOptions{Workers: denseWorkers})
	build.End()
	if err != nil {
		return denseRun{}, err
	}
	defer en.Close()
	var cands *metrics.Histogram
	if tr != nil {
		cands = metrics.NewRegistry().Histogram("batch_candidates", "batched candidates", []float64{1})
		en.SetSink(&score.Sink{BatchCandidates: cands})
	}
	sp := tr.Start("algo.ScheduleCtx")
	res, err := algo.WithEngine(sched, en).ScheduleCtx(span.NewContext(ctx, tr), inst, k)
	sp.End()
	if err != nil {
		return denseRun{}, err
	}
	return denseRun{res: res, stat: en.Stat(), candidates: cands.Sum()}, nil
}

// scheduleFingerprint renders a schedule's assignments in selection order.
func scheduleFingerprint(s *core.Schedule) string {
	var b strings.Builder
	for i, a := range s.Assignments() {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "e%d@t%d", a.Event, a.Interval)
	}
	return b.String()
}

// checkDense compares a solve with the recorded values: utility, ScoreEvals
// and Examined of the algorithm itself, and the schedule of its reference
// algorithm (INC must return ALG's schedule, HOR-I HOR's).
func checkDense(size [2]int, alg string, r *algo.Result) error {
	got := denseGolden{utility: r.Utility, evals: r.ScoreEvals, examined: r.Examined, schedule: scheduleFingerprint(r.Schedule)}
	goldens, ok := denseGoldens[size]
	if !ok {
		return fmt.Errorf("%s: no recorded values for |U|=%d k=%d; got %v", alg, size[0], size[1], got)
	}
	want, ref := goldens[alg], goldens[denseReference[alg]]
	if math.Float64bits(got.utility) != math.Float64bits(want.utility) ||
		got.evals != want.evals || got.examined != want.examined || got.schedule != ref.schedule {
		return fmt.Errorf("%s: got %v, want %v with the schedule of %s", alg, got, want, denseReference[alg])
	}
	return nil
}

// denseSample is one checked solve of a phase. It keeps the solve's counts,
// not its result: a schedule holds per-user state, and keeping every one
// would grow the heap through the run.
type denseSample struct {
	alg                  string
	lat                  float64 // ms
	elapsed              time.Duration
	scoreEvals, examined int64
	stat                 score.Stats
	candidates           float64
	tr                   *span.Trace // traced phases only
}

func runSolveDense(ctx context.Context, cfg *config) (*Result, error) {
	sz := cfg.sizes
	size := [2]int{sz.denseUsers, sz.denseK}
	res := &Result{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced}
	var genMS []float64
	inst, setupS, err := setupRuns(sz.setups, func() (*core.Instance, error) {
		t0 := time.Now()
		inst, err := dataset.Generate(dataset.DefaultConfig(sz.denseK, sz.denseUsers, dataset.Zipf2, instanceSeed))
		if err != nil {
			return nil, err
		}
		genMS = append(genMS, ms(time.Since(t0)))
		var buf bytes.Buffer
		if err := seio.WriteInstance(&buf, inst); err != nil {
			return nil, err
		}
		if inst, err = seio.ReadInstance(&buf); err != nil {
			return nil, err
		}
		for _, alg := range denseAlgorithms {
			if _, err := denseSolve(ctx, inst, alg, sz.denseK, nil); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", alg, err)
			}
		}
		return inst, nil
	}, func(*core.Instance) {})
	if err != nil {
		return nil, err
	}

	// The seed orders the rotation; every round runs each algorithm once,
	// and a phase ends only at a round boundary so the four stay balanced.
	rng := rand.New(rand.NewPCG(cfg.seed, 0xde45e))
	order := make([]string, len(denseAlgorithms))
	for i, j := range rng.Perm(len(denseAlgorithms)) {
		order[i] = denseAlgorithms[j]
	}
	// phase runs whole rotations for dur, or exactly rounds of them when
	// rounds > 0, checking every solve. It returns the checked solves and
	// each rotation's mean solve time.
	phase := func(dur time.Duration, rounds int, traced bool) (samples []denseSample, roundMeans []float64, elapsed time.Duration) {
		start := time.Now()
		for round := 0; (rounds > 0 && round < rounds) || (rounds == 0 && (round == 0 || time.Since(start) < dur)); round++ {
			var sum float64
			for _, alg := range order {
				var tr *span.Trace
				if traced {
					tr = span.NewRoot("solve")
					tr.Annotate("algorithm", alg)
				}
				t0 := time.Now()
				run, err := denseSolve(ctx, inst, alg, sz.denseK, tr)
				d := ms(time.Since(t0))
				tr.Finish()
				res.Attempted++
				if err == nil {
					cfg.tamperWith(run.res)
					err = checkDense(size, alg, run.res)
				}
				if err != nil {
					res.fail(err)
					continue
				}
				samples = append(samples, denseSample{
					alg: alg, lat: d, elapsed: run.res.Elapsed,
					scoreEvals: run.res.ScoreEvals, examined: run.res.Examined,
					stat: run.stat, candidates: run.candidates, tr: tr,
				})
				sum += d
			}
			roundMeans = append(roundMeans, sum/float64(len(order)))
		}
		return samples, roundMeans, time.Since(start)
	}
	lats := func(samples []denseSample) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = s.lat
		}
		return out
	}

	users, events, comp := inst.NumUsers(), inst.NumEvents(), inst.NumCompeting()
	res.prop("instance", fmt.Sprintf("dense Zip |U|=%d |E|=%d |T|=%d |C|=%d k=%d (dataset seed %d)",
		users, events, inst.NumIntervals(), comp, sz.denseK, instanceSeed), true)
	res.prop("nnz", inst.InterestNonzeros(), true)
	res.prop("density", 1.0, true)
	res.prop("rotation", strings.Join(order, ","), true)
	res.prop("cache_hit_share", 0, true)
	res.prop("warm_acquire_share", 0, true)

	if !cfg.traced {
		samples, rounds, elapsed := phase(cfg.measure, 0, false)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		// The pooled median of four algorithms in rotation falls in the gap
		// between the fast pair (HOR, HOR-I) and the slow pair (ALG, INC),
		// where it jumps between the two; the median over rotations of the
		// rotation's mean solve time is steady.
		p50, p90, rate := median(rounds), quantile(lats(samples), 0.9), float64(len(samples))/elapsed.Seconds()
		res.prop("solves", len(samples), false)
		es := newMetricSet(endToEnd)
		es.set("latency_ms.p50", p50)
		es.set("latency_ms.tail", p90)
		es.set("ops_per_s", rate)
		es.set("peak_rss_mb", rss)
		es.set("setup_s", setupS)
		res.EndToEnd = es.list()
		res.Named = []Metric{
			{"solve_ms.p50", "ms", p50}, {"solve_ms.p90", "ms", p90}, {"solves_per_s", "1/s", rate},
			{"setup_s", "s", setupS}, {"error_rate", "ratio", res.errorRate()}, {"peak_rss_mb", "MB", rss},
		}
		return res, nil
	}

	ls := newMetricSet(layerMetrics)
	if err := setInstanceLayers(ls, inst, genMS); err != nil {
		return nil, err
	}
	before := readMem()
	traced, tracedRounds, _ := phase(0, sz.denseTracedRounds, true)
	after := readMem()
	_, plainRounds, _ := phase(cfg.measure/2, 0, false)
	var scoreMS, unbatchedMS []float64
	var evals, fanouts, gridHits, cands float64
	for _, s := range traced {
		res.ClientSpans = append(res.ClientSpans, s.tr.Snapshot())
		score := s.tr.Get("score")
		scoreMS = append(scoreMS, ms(score))
		unbatchedMS = append(unbatchedMS, ms(s.elapsed-score))
		evals += float64(s.stat.Evals)
		fanouts += float64(s.stat.Fanouts)
		gridHits += float64(s.stat.GridHits)
		cands += s.candidates
		ls.set("algo.score_evals."+s.alg, float64(s.scoreEvals))
		ls.set("algo.examined."+s.alg, float64(s.examined))
	}
	n := float64(len(traced))
	ls.set("score.batch_ms", mean(scoreMS))
	ls.set("score.evals", ratio(evals, n))
	ls.set("score.fanouts", ratio(fanouts, n))
	ls.set("score.grid_hits", ratio(gridHits, n))
	ls.set("score.grid_hit_ratio", ratio(gridHits, cands))
	ls.set("algo.unbatched_ms", mean(unbatchedMS))
	setRuntime(ls, before, after, len(traced))
	setOverhead(ls, median(plainRounds), median(tracedRounds))
	res.Layers = ls.list()
	return res, nil
}
