package score

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestEngineKernelSelection: forced kernel variants flow through the engine —
// exact variants keep every score bit-identical to the default engine, and
// the concrete selection shows up in KernelName and Stats.
func TestEngineKernelSelection(t *testing.T) {
	inst := testInstance(21, 8, 4, 3, 900)
	s := testSchedule(t, inst)
	ref, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if ref.KernelName() != core.KernelScalar {
		t.Fatalf("default dense engine kernel = %q", ref.KernelName())
	}
	for _, sel := range []string{core.KernelScalar, core.KernelBlocked} {
		for _, workers := range []int{0, 3} {
			en, err := New(inst, core.ScorerOptions{Workers: workers, Kernel: sel})
			if err != nil {
				t.Fatal(err)
			}
			if en.KernelName() != sel {
				t.Fatalf("engine kernel %q resolved to %q", sel, en.KernelName())
			}
			if st := en.Stat(); st.Kernel != sel {
				t.Fatalf("Stats.Kernel = %q, want %q", st.Kernel, sel)
			}
			for e := 0; e < inst.NumEvents(); e++ {
				for tv := 0; tv < inst.NumIntervals(); tv++ {
					if got, want := en.Score(s, e, tv), ref.Score(s, e, tv); got != want {
						t.Fatalf("kernel %q workers=%d Score(e%d,t%d) = %x, want %x", sel, workers, e, tv, got, want)
					}
				}
			}
			en.Close()
		}
	}
	if _, err := New(inst, core.ScorerOptions{Kernel: "no-such-kernel"}); err == nil {
		t.Fatal("engine construction accepted an unknown kernel")
	}
}

// TestEngineKernelEvalsSink: the per-variant eval counter is bound to the
// engine's concrete kernel label and moves in step with computed (not
// memo-served) evaluations.
func TestEngineKernelEvalsSink(t *testing.T) {
	inst := testInstance(22, 8, 3, 2, 400)
	en, err := New(inst, core.ScorerOptions{Kernel: core.KernelBlocked})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	r := metrics.NewRegistry()
	kv := r.CounterVec("test_kernel_evals_total", "per-variant evals", "kernel")
	en.SetSink(&Sink{KernelEvals: kv})

	// Seven distinct events against one prefix: seven computed passes.
	s := testSchedule(t, inst)
	const singles = 7
	for e := 0; e < singles; e++ {
		en.Score(s, e, 0)
	}
	if got := kv.With(core.KernelBlocked).Value(); got != singles {
		t.Fatalf("kernel eval counter = %d after %d Score calls, want %d", got, singles, singles)
	}
	if got := kv.With(core.KernelScalar).Value(); got != 0 {
		t.Fatalf("scalar label moved (%d) on a blocked engine", got)
	}
	// Repeats are memo hits: GridHits moves, the kernel counter does not.
	hits := en.Stat().GridHits
	for e := 0; e < singles; e++ {
		en.Score(s, e, 0)
	}
	if got := en.Stat().GridHits - hits; got != singles {
		t.Fatalf("repeat Score calls served %d memo hits, want %d", got, singles)
	}
	if got := kv.With(core.KernelBlocked).Value(); got != singles {
		t.Fatalf("memo-served Score calls moved the kernel eval counter to %d", got)
	}

	// A batch over the same schedule computes every candidate except the
	// seven interval-0 scores already memoized.
	grid := fullGrid(inst)
	out := make([]float64, len(grid))
	if err := en.ScoreBatch(context.Background(), s, grid, out); err != nil {
		t.Fatal(err)
	}
	want := int64(len(grid))
	if got := kv.With(core.KernelBlocked).Value(); got != want {
		t.Fatalf("kernel eval counter = %d after batch, want %d", got, want)
	}

	// The repeat empty-schedule batch is served from the memo and must NOT
	// count as kernel evaluations.
	empty := core.NewSchedule(inst)
	if err := en.ScoreBatch(context.Background(), empty, grid, out); err != nil {
		t.Fatal(err)
	}
	afterFill := kv.With(core.KernelBlocked).Value()
	if err := en.ScoreBatch(context.Background(), empty, grid, out); err != nil {
		t.Fatal(err)
	}
	if got := kv.With(core.KernelBlocked).Value(); got != afterFill {
		t.Fatalf("memo-served batch moved the kernel eval counter (%d -> %d)", afterFill, got)
	}
}

// TestNewFromPreviousKernelChange: the warm engine path still produces
// bit-identical scores under a kernel-selection change, but the prefix memo
// must not cross kernel variants (provenance: "which
// kernel computed this number" is part of the cache contract).
func TestNewFromPreviousKernelChange(t *testing.T) {
	inst := testInstance(23, 6, 3, 2, 300)
	prev, err := New(inst, core.ScorerOptions{Kernel: core.KernelScalar})
	if err != nil {
		t.Fatal(err)
	}
	defer prev.Close()
	grid := fullGrid(inst)
	out := make([]float64, len(grid))
	if err := prev.ScoreBatch(context.Background(), core.NewSchedule(inst), grid, out); err != nil {
		t.Fatal(err)
	}

	next := inst.Snapshot()
	next.SetInterest(3, 1, 0.66)
	d := core.ScorerDelta{Events: []int{1}}

	same, err := NewFromPrevious(prev, next, core.ScorerOptions{Kernel: core.KernelScalar}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer same.Close()
	if same.MemoCells() == 0 {
		t.Fatal("same-kernel warm engine dropped the memo carry")
	}

	changed, err := NewFromPrevious(prev, next, core.ScorerOptions{Kernel: core.KernelBlocked}, d)
	if err != nil {
		t.Fatal(err)
	}
	defer changed.Close()
	if changed.KernelName() != core.KernelBlocked {
		t.Fatalf("warm engine kernel = %q", changed.KernelName())
	}
	if changed.MemoCells() != 0 {
		t.Fatal("kernel change carried the previous variant's memo")
	}

	// Both warm engines still agree bitwise with a cold build of next.
	cold, err := New(next, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	co, wo, bo := make([]float64, len(grid)), make([]float64, len(grid)), make([]float64, len(grid))
	s := testSchedule(t, next)
	if err := cold.ScoreBatch(context.Background(), s, grid, co); err != nil {
		t.Fatal(err)
	}
	if err := same.ScoreBatch(context.Background(), s, grid, wo); err != nil {
		t.Fatal(err)
	}
	if err := changed.ScoreBatch(context.Background(), s, grid, bo); err != nil {
		t.Fatal(err)
	}
	for i := range co {
		if co[i] != wo[i] || co[i] != bo[i] {
			t.Fatalf("warm scores diverged at %d: cold=%x same=%x changed=%x", i, co[i], wo[i], bo[i])
		}
	}
}
