package algo

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/score"
)

// resolveMutate applies a small deterministic mutation for step i and
// returns the scorer-level dirty set, mirroring what the server derives from
// a MutateRequest.
func resolveMutate(t *testing.T, inst *core.Instance, i int) core.ScorerDelta {
	t.Helper()
	nE, nT, nC := inst.NumEvents(), inst.NumIntervals(), inst.NumCompeting()
	e := (i * 3) % nE
	inst.SetInterest((i*7)%inst.NumUsers(), e, float64(i%10)/10)
	d := core.ScorerDelta{Events: []int{e}}
	if nC > 0 {
		ci := (i * 5) % nC
		inst.SetCompetingInterest((i*11)%inst.NumUsers(), ci, float64((i+3)%10)/10)
		d.CompIntervals = []int{inst.Competing[ci].Interval}
	}
	tt := (i * 2) % nT
	inst.SetActivity((i*13)%inst.NumUsers(), tt, float64((i+5)%10)/10)
	d.ActIntervals = []int{tt}
	return core.ScorerDelta{}.Merge(d)
}

func sameResult(t *testing.T, label string, warm, cold *Result) {
	t.Helper()
	if warm.Utility != cold.Utility {
		t.Errorf("%s: utility %v warm vs %v cold", label, warm.Utility, cold.Utility)
	}
	if warm.Counters != cold.Counters {
		t.Errorf("%s: counters %+v warm vs %+v cold", label, warm.Counters, cold.Counters)
	}
	gw, gc := warm.Schedule.Assignments(), cold.Schedule.Assignments()
	if len(gw) != len(gc) {
		t.Fatalf("%s: %d selections warm vs %d cold", label, len(gw), len(gc))
	}
	for j := range gw {
		if gw[j] != gc[j] {
			t.Errorf("%s: selection %d = %+v warm vs %+v cold", label, j, gw[j], gc[j])
		}
	}
}

// runCounted runs the named scheduler on en and checks the engine's side of
// the accounting: every evaluation the run requested was either computed
// (Evals) or served from the prefix memo (GridHits).
func runCounted(t *testing.T, label, name string, en *score.Engine, k int) *Result {
	t.Helper()
	sched, err := NewWithEngine(name, 9, en)
	if err != nil {
		t.Fatal(err)
	}
	before := en.Stat()
	res, err := sched.ScheduleCtx(context.Background(), en.Instance(), k)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	after := en.Stat()
	if got := after.Evals - before.Evals + after.GridHits - before.GridHits; got != res.ScoreEvals {
		t.Errorf("%s: engine evals+hits moved %d, run reports ScoreEvals %d", label, got, res.ScoreEvals)
	}
	return res
}

// The gate of the incremental re-solve feature: across a chain of
// mutations, every scheduler run on a warm delta-rebuilt engine must be
// bit-identical — utility, ScoreEvals, Examined, selection sequence — to the
// same scheduler on a cold engine of the mutated instance, at every worker
// count. This is the algo-level half of the CI parallel-equality gate
// (engine-level bit-identity lives in score's TestWarmEngineBitIdentical).
func TestResolveExactMatchesCold(t *testing.T) {
	for _, workers := range []int{0, 3, 8} {
		opts := core.ScorerOptions{Workers: workers}
		inst := randomInstance(61, 14, 6, 5, 150, 5)
		warm, err := score.New(inst, opts)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 3; step++ {
			next := inst.Snapshot()
			d := resolveMutate(t, next, step)
			w2, err := score.NewFromPrevious(warm, next, opts, d)
			if err != nil {
				t.Fatal(err)
			}
			warm.Close()
			warm, inst = w2, next
			cold, err := score.New(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range Names() {
				label := fmt.Sprintf("%s w=%d step=%d", name, workers, step)
				rw := runCounted(t, label+" warm", name, warm, 5)
				rc := runCounted(t, label+" cold", name, cold, 5)
				sameResult(t, label, rw, rc)
			}
			cold.Close()
		}
		warm.Close()
	}
}

// TestWarmMemoChainMatchesCold drives all six schedulers through a mutation
// chain on one warm engine lineage, dense and sparse, where the carried
// prefix memo serves most scores: every run must equal a cold solve
// (schedule, utility, ScoreEvals, Examined), the engine's evals+hits must
// account for every requested evaluation, and the carry must actually serve
// scores — a repeat run on the same engine computes nothing at all.
func TestWarmMemoChainMatchesCold(t *testing.T) {
	dense, sparse := sparseDensePair(t, 64, 16, 5, 4, 300, 0.3)
	for _, tc := range []struct {
		rep  string
		inst *core.Instance
	}{{"dense", dense}, {"sparse", sparse}} {
		for _, workers := range []int{0, 3} {
			opts := core.ScorerOptions{Workers: workers}
			inst := tc.inst
			warm, err := score.New(inst, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range Names() {
				runCounted(t, "prime "+name, name, warm, 7)
			}
			for step := 1; step <= 4; step++ {
				next := inst.Snapshot()
				d := resolveMutate(t, next, step)
				w2, err := score.NewFromPrevious(warm, next, opts, d)
				if err != nil {
					t.Fatal(err)
				}
				warm.Close()
				warm, inst = w2, next
				cold, err := score.New(inst, opts)
				if err != nil {
					t.Fatal(err)
				}
				hits := warm.Stat().GridHits
				for _, name := range Names() {
					label := fmt.Sprintf("%s %s w=%d step=%d", tc.rep, name, workers, step)
					rw := runCounted(t, label+" warm", name, warm, 7)
					rc := runCounted(t, label+" cold", name, cold, 7)
					sameResult(t, label, rw, rc)
				}
				if warm.Stat().GridHits == hits {
					t.Errorf("%s w=%d step=%d: warm engine served no memoized scores", tc.rep, workers, step)
				}
				evals := warm.Stat().Evals
				for _, name := range Names() {
					runCounted(t, "repeat "+name, name, warm, 7)
				}
				if got := warm.Stat().Evals; got != evals {
					t.Errorf("%s w=%d step=%d: repeat runs computed %d evaluations, want 0", tc.rep, workers, step, got-evals)
				}
				cold.Close()
			}
			warm.Close()
		}
	}
}
