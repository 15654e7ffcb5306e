package score

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestEngineKernelSelection: the instance representation selects the Eq. 4
// loop, and engines over the dense and sparse builds of one instance return
// the same bits from Score and ScoreBatch at every worker count.
func TestEngineKernelSelection(t *testing.T) {
	dense := repInstance(t, 21, 8, 4, 3, 1500, 0.15, core.RepDense)
	sparse := repInstance(t, 21, 8, 4, 3, 1500, 0.15, core.RepSparse)
	if dense.IsSparse() || !sparse.IsSparse() {
		t.Fatal("representation not as requested")
	}
	grid := fullGrid(dense)
	for _, workers := range []int{0, 3} {
		scores := map[bool][]float64{}
		for _, inst := range []*core.Instance{dense, sparse} {
			en, err := New(inst, core.ScorerOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			s := testSchedule(t, inst)
			out := make([]float64, len(grid))
			if err := en.ScoreBatch(context.Background(), s, grid, out); err != nil {
				t.Fatal(err)
			}
			if workers > 1 && en.Stat().Fanouts == 0 {
				t.Fatalf("sparse=%v workers=%d: batch did not fan out", inst.IsSparse(), workers)
			}
			// Singles on a second engine, so they are computed rather than
			// served from the batch's memo rows.
			single, err := New(inst, core.ScorerOptions{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range grid {
				if v := single.Score(s, c.Event, c.Interval); v != out[i] {
					t.Fatalf("sparse=%v workers=%d: Score(e%d,t%d) = %x, batch %x",
						inst.IsSparse(), workers, c.Event, c.Interval, v, out[i])
				}
			}
			en.Close()
			single.Close()
			scores[inst.IsSparse()] = out
		}
		for i := range grid {
			if scores[false][i] != scores[true][i] {
				t.Fatalf("workers=%d: candidate %d dense %x vs sparse %x", workers, i, scores[false][i], scores[true][i])
			}
		}
	}
}

// TestEngineKernelEvalsSink: the sink's eval counter moves in step with
// computed Eq. 4 passes, and memo-served scores move GridHits instead.
func TestEngineKernelEvalsSink(t *testing.T) {
	inst := testInstance(22, 8, 3, 2, 400)
	en, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	r := metrics.NewRegistry()
	sink := &Sink{
		Evals:    r.Counter("test_evals_total", "computed evals"),
		GridHits: r.Counter("test_grid_hits_total", "memo-served evals"),
	}
	en.SetSink(sink)

	// Seven distinct events against one prefix: seven computed passes.
	s := testSchedule(t, inst)
	const singles = 7
	for e := 0; e < singles; e++ {
		en.Score(s, e, 0)
	}
	if got := sink.Evals.Value(); got != singles {
		t.Fatalf("eval counter = %d after %d Score calls, want %d", got, singles, singles)
	}
	// Repeats are memo hits: GridHits moves, the eval counter does not.
	for e := 0; e < singles; e++ {
		en.Score(s, e, 0)
	}
	if got := sink.GridHits.Value(); got != singles {
		t.Fatalf("repeat Score calls served %d memo hits, want %d", got, singles)
	}
	if got := sink.Evals.Value(); got != singles {
		t.Fatalf("memo-served Score calls moved the eval counter to %d", got)
	}

	// A batch over the same schedule computes every candidate except the
	// seven interval-0 scores already memoized.
	grid := fullGrid(inst)
	out := make([]float64, len(grid))
	if err := en.ScoreBatch(context.Background(), s, grid, out); err != nil {
		t.Fatal(err)
	}
	if got, want := sink.Evals.Value(), int64(len(grid)); got != want {
		t.Fatalf("eval counter = %d after batch, want %d", got, want)
	}

	// The repeat empty-schedule batch is served from the memo and must NOT
	// count as computed evaluations.
	empty := core.NewSchedule(inst)
	if err := en.ScoreBatch(context.Background(), empty, grid, out); err != nil {
		t.Fatal(err)
	}
	afterFill := sink.Evals.Value()
	if err := en.ScoreBatch(context.Background(), empty, grid, out); err != nil {
		t.Fatal(err)
	}
	if got := sink.Evals.Value(); got != afterFill {
		t.Fatalf("memo-served batch moved the eval counter (%d -> %d)", afterFill, got)
	}
}
