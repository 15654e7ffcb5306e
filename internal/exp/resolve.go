package exp

import (
	"context"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/score"
)

// resolveMutation applies a small deterministic edit for chain step i — one
// interest row, one activity column — and returns the scorer-level dirty
// set, mirroring what sesd derives from a PATCH body. This is the
// steady-state streaming workload: a handful of cells move, the rest of the
// million-user instance stands still.
func resolveMutation(inst *core.Instance, i int) core.ScorerDelta {
	e := (i * 7) % inst.NumEvents()
	t := (i * 3) % inst.NumIntervals()
	inst.SetInterest((i*13)%inst.NumUsers(), e, float64(i%10)/10)
	inst.SetActivity((i*17)%inst.NumUsers(), t, float64((i+4)%10)/10)
	return core.ScorerDelta{}.Merge(core.ScorerDelta{Events: []int{e}, ActIntervals: []int{t}})
}

// FigResolve benchmarks the incremental re-solve path against cold restarts
// on the ROADMAP's million-user sparse workload (|U| scaled from a
// 1,000,000-user base; 500 events, 10 intervals, 5% density). A chain of
// small mutations is applied; after each, the schedule is recomputed twice:
//
//   - "warm": the previous version's engine is delta-rebuilt
//     (score.NewFromPrevious) and the scheduler runs on it — sesd's
//     steady-state PATCH → re-solve path;
//   - "cold": a fresh engine is built from scratch — what every mutation
//     cost before the engine cache learned to retire.
//
// Each series emits a BUILD row (engine construction wall time, where the
// warm win lives) plus solve rows. The deterministic columns — Ω,
// ScoreEvals, Examined — are computed identically by construction at every
// worker count, so checking this figure's BENCH file against bench/baseline
// extends the CI equality gate to mutate → re-solve chains, while the BUILD
// wall-time gap is the headline number of the incremental-re-solve feature.
func FigResolve(o Options) ([]Row, error) {
	const (
		events    = 500
		intervals = 10
		k         = 20 // k > |T| keeps HOR-I distinct from HOR
		steps     = 3
	)
	users := o.Scale.Users(1_000_000)
	algos := []string{"HOR-I", "TOP"}
	opts := core.ScorerOptions{Workers: o.Workers}

	cfg := dataset.DefaultConfig(k, users, dataset.Uniform, o.Seed)
	cfg.NumEvents = events
	cfg.NumIntervals = intervals
	cfg.Density = 0.05
	cfg.Rep = core.RepSparse
	inst, err := dataset.Generate(cfg)
	if err != nil {
		return nil, err
	}
	warm, err := score.New(inst, opts)
	if err != nil {
		return nil, err
	}
	defer func() { warm.Close() }()

	var rows []Row
	addBuild := func(series string, step int, d time.Duration) {
		rows = append(rows, Row{
			Figure: "resolve", Dataset: series, Algorithm: "BUILD",
			XName: "step", X: step, K: k,
			Events: inst.NumEvents(), Intervals: inst.NumIntervals(), Users: inst.NumUsers(),
			Elapsed: d,
		})
		o.logf("fig resolve %-5s BUILD step=%d |U|=%d %.2fms",
			series, step, inst.NumUsers(), float64(d.Microseconds())/1000)
	}
	addSolve := func(series, name string, step int, res *algo.Result) {
		rows = append(rows, Row{
			Figure: "resolve", Dataset: series, Algorithm: name,
			XName: "step", X: step, K: k,
			Events: inst.NumEvents(), Intervals: inst.NumIntervals(), Users: inst.NumUsers(),
			Utility: res.Utility, ScoreEvals: res.ScoreEvals,
			Computations: res.Computations(inst.NumUsers()), Examined: res.Examined,
			Elapsed: res.Elapsed,
		})
		o.logf("fig resolve %-5s %-5s step=%d Ω=%.1f evals=%d %.2fms",
			series, name, step, res.Utility, res.ScoreEvals, float64(res.Elapsed.Microseconds())/1000)
	}

	for step := 1; step <= steps; step++ {
		next := inst.Snapshot()
		delta := resolveMutation(next, step)

		if o.wantDataset("warm") {
			t0 := time.Now()
			w2, err := score.NewFromPrevious(warm, next, opts, delta)
			if err != nil {
				return nil, err
			}
			warmBuild := time.Since(t0)
			warm.Close()
			warm, inst = w2, next
			addBuild("warm", step, warmBuild)
		} else {
			// Cold-only run: still advance the chain state.
			w2, err := score.New(next, opts)
			if err != nil {
				return nil, err
			}
			warm.Close()
			warm, inst = w2, next
		}

		var cold *score.Engine
		if o.wantDataset("cold") {
			t0 := time.Now()
			if cold, err = score.New(inst, opts); err != nil {
				return nil, err
			}
			addBuild("cold", step, time.Since(t0))
		}

		for _, name := range algos {
			if !o.wantAlgorithm(name) {
				continue
			}
			if o.wantDataset("warm") {
				res, err := resolveOn(name, o.Seed, warm, k)
				if err != nil {
					return nil, err
				}
				addSolve("warm", name, step, res)
			}
			if cold != nil {
				res, err := resolveOn(name, o.Seed, cold, k)
				if err != nil {
					return nil, err
				}
				addSolve("cold", name, step, res)
			}
		}
		if cold != nil {
			cold.Close()
		}
	}
	return rows, nil
}

// resolveOn runs the named scheduler on a shared engine.
func resolveOn(name string, seed uint64, en *score.Engine, k int) (*algo.Result, error) {
	sched, err := algo.NewWithEngine(name, seed, en)
	if err != nil {
		return nil, err
	}
	return sched.ScheduleCtx(context.Background(), en.Instance(), k)
}
