package score

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/randx"
)

// testInstance builds a reproducible random instance.
func testInstance(seed uint64, nE, nT, nC, nU int) *core.Instance {
	r := randx.New(seed)
	events := make([]core.Event, nE)
	for i := range events {
		events[i] = core.Event{Location: r.Intn(nE), Resources: float64(r.IntRange(1, 3))}
	}
	intervals := make([]core.Interval, nT)
	competing := make([]core.Competing, nC)
	for i := range competing {
		competing[i] = core.Competing{Interval: r.Intn(nT)}
	}
	inst, err := core.NewInstance(events, intervals, competing, nU, 10)
	if err != nil {
		panic(err)
	}
	row := make([]float32, nE+nC)
	act := make([]float32, nT)
	for u := 0; u < nU; u++ {
		for i := range row {
			row[i] = float32(r.Float64())
		}
		inst.SetInterestRow(u, row)
		for i := range act {
			act[i] = float32(r.Float64())
		}
		inst.SetActivityRow(u, act)
	}
	return inst
}

// testSchedule assigns a few events so denominators are non-trivial.
func testSchedule(t *testing.T, inst *core.Instance) *core.Schedule {
	t.Helper()
	s := core.NewSchedule(inst)
	for e := 0; e < inst.NumEvents() && s.Len() < 3; e++ {
		tv := e % inst.NumIntervals()
		if s.Valid(e, tv) {
			if err := s.Assign(e, tv); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

// A sequential engine over a single-shard instance must reproduce
// core.Scorer.Score bit for bit (the seed benchmarks' numbers must not move).
func TestSequentialEngineMatchesScorer(t *testing.T) {
	inst := testInstance(1, 8, 4, 3, 500)
	en, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	sc := core.NewScorer(inst)
	s := testSchedule(t, inst)
	for e := 0; e < inst.NumEvents(); e++ {
		for tv := 0; tv < inst.NumIntervals(); tv++ {
			if got, want := en.Score(s, e, tv), sc.Score(s, e, tv); got != want {
				t.Fatalf("Score(e%d,t%d) = %v, scorer says %v", e, tv, got, want)
			}
		}
	}
	if u, _ := en.Evaluate(context.Background(), s); u != sc.Utility(s) {
		t.Fatal("engine utility diverged from scorer utility")
	}
}

// Every worker count must produce bit-identical scores, through both Score
// and ScoreBatch, on an instance spanning several user shards.
func TestParallelBitIdentical(t *testing.T) {
	inst := testInstance(2, 10, 4, 3, 2*chunkUsers+123)
	s := testSchedule(t, inst)
	var cands []Candidate
	for e := 0; e < inst.NumEvents(); e++ {
		for tv := 0; tv < inst.NumIntervals(); tv++ {
			cands = append(cands, Candidate{Event: e, Interval: tv})
		}
	}
	var ref []float64
	for _, workers := range []int{0, 1, 2, 3, 8} {
		en, err := New(inst, core.ScorerOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(cands))
		if err := en.ScoreBatch(context.Background(), s, cands, out); err != nil {
			t.Fatal(err)
		}
		for i, cd := range cands {
			if single := en.Score(s, cd.Event, cd.Interval); single != out[i] {
				t.Fatalf("workers=%d: Score %v != batch %v at %+v", workers, single, out[i], cd)
			}
		}
		if ref == nil {
			ref = out
		} else {
			for i := range out {
				if out[i] != ref[i] {
					t.Fatalf("workers=%d: score %v differs from workers=0 reference %v at %+v",
						workers, out[i], ref[i], cands[i])
				}
			}
		}
		en.Close()
	}
}

// Above the single-evaluation threshold, Score shards one user pass across
// the workers — still bit-identical to the sequential engine.
func TestScoreShardedSingleEvaluation(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates ~65K-user matrices")
	}
	inst := testInstance(7, 3, 2, 2, singleParallelUsers+100)
	s := testSchedule(t, inst)
	seq, err := New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	par, err := New(inst, core.ScorerOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if par.Instance() != inst || par.Scorer() == nil {
		t.Fatal("engine accessors broken")
	}
	for e := 0; e < inst.NumEvents(); e++ {
		for tv := 0; tv < inst.NumIntervals(); tv++ {
			if got, want := par.Score(s, e, tv), seq.Score(s, e, tv); got != want {
				t.Fatalf("sharded Score(e%d,t%d) = %v, sequential %v", e, tv, got, want)
			}
		}
	}
	if st := par.Stat(); st.Fanouts == 0 {
		t.Fatalf("sharded evaluations did not engage the worker set: %+v", st)
	}
}

// Weights and costs must flow through the engine exactly as through a scorer.
func TestEngineWithExtensions(t *testing.T) {
	inst := testInstance(3, 6, 3, 2, 400)
	weights := make([]float64, inst.NumUsers())
	for i := range weights {
		weights[i] = float64(i%4) * 0.5
	}
	costs := []float64{0.6, 0.5, 0.4, 0.3, 0.2, 0.1}
	opts := core.ScorerOptions{UserWeights: weights, EventCost: costs}
	sc, err := core.NewScorerWithOptions(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 3
	en, err := New(inst, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	s := testSchedule(t, inst)
	for e := 0; e < inst.NumEvents(); e++ {
		for tv := 0; tv < inst.NumIntervals(); tv++ {
			if got, want := en.Score(s, e, tv), sc.Score(s, e, tv); got != want {
				t.Fatalf("extension Score(e%d,t%d) = %v, want %v", e, tv, got, want)
			}
		}
	}
	if _, err := New(inst, core.ScorerOptions{Workers: -1}); err == nil {
		t.Fatal("negative workers accepted")
	}
	if _, err := New(inst, core.ScorerOptions{UserWeights: []float64{1}}); err == nil {
		t.Fatal("mismatched weights accepted")
	}
}

// A cancelled context must stop a running batch promptly — workers exit
// mid-pass instead of finishing the frontier.
func TestBatchCancellationPrompt(t *testing.T) {
	inst := testInstance(4, 24, 6, 3, chunkUsers) // 144 candidates × 8K users
	s := core.NewSchedule(inst)
	en, err := New(inst, core.ScorerOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	var cands []Candidate
	for e := 0; e < inst.NumEvents(); e++ {
		for tv := 0; tv < inst.NumIntervals(); tv++ {
			cands = append(cands, Candidate{Event: e, Interval: tv})
		}
	}
	out := make([]float64, len(cands))
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already dead: the batch must not do a full pass
	start := time.Now()
	if err := en.ScoreBatch(ctx, s, cands, out); err == nil {
		t.Fatal("cancelled batch returned nil error")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("cancelled batch took %v to return", d)
	}

	// Cancel mid-flight: start a batch, pull the plug from a timer.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel2()
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := en.ScoreBatch(ctx2, s, cands, out); err != nil {
			return // observed the cancellation; done
		}
	}
	t.Fatal("batches kept completing after cancellation")
}

// Concurrent batches on one shared engine must neither race (run under
// -race) nor corrupt each other's outputs.
func TestConcurrentBatchesShareEngine(t *testing.T) {
	inst := testInstance(5, 12, 4, 3, chunkUsers+50)
	s := testSchedule(t, inst)
	en, err := New(inst, core.ScorerOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	var cands []Candidate
	for e := 0; e < inst.NumEvents(); e++ {
		for tv := 0; tv < inst.NumIntervals(); tv++ {
			cands = append(cands, Candidate{Event: e, Interval: tv})
		}
	}
	want := make([]float64, len(cands))
	if err := en.ScoreBatch(context.Background(), s, cands, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, len(cands))
			for rep := 0; rep < 5; rep++ {
				if err := en.ScoreBatch(context.Background(), s, cands, out); err != nil {
					errs <- err
					return
				}
				for i := range out {
					if out[i] != want[i] {
						errs <- &mismatchError{i: i, got: out[i], want: want[i]}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := en.Stat(); st.Evals == 0 || st.Batches == 0 {
		t.Fatalf("engine stats not accumulating: %+v", st)
	}
}

type mismatchError struct {
	i         int
	got, want float64
}

func (e *mismatchError) Error() string {
	return fmt.Sprintf("concurrent batch mismatch at candidate %d: got %v, want %v", e.i, e.got, e.want)
}

func TestCloseIdempotentAndWorkersCapped(t *testing.T) {
	inst := testInstance(6, 4, 2, 1, 60)
	en, err := New(inst, core.ScorerOptions{Workers: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if en.Workers() != maxWorkers {
		t.Fatalf("worker count %d, want the %d sanity cap", en.Workers(), maxWorkers)
	}
	en.Close()
	en.Close() // must not panic
	if DefaultWorkers() < 1 {
		t.Fatal("DefaultWorkers must be positive")
	}
}
