package algo

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/score"
)

// sparseDensePair builds the same random low-density instance twice — dense
// and sparse — from identical row streams.
func sparseDensePair(t *testing.T, seed uint64, nE, nT, nC, nU int, density float64) (dense, sparse *core.Instance) {
	t.Helper()
	build := func(rep core.Rep) *core.Instance {
		r := randx.New(seed)
		events := make([]core.Event, nE)
		for i := range events {
			events[i] = core.Event{Location: r.Intn(max(1, nE/2)), Resources: float64(r.IntRange(1, 3))}
		}
		intervals := make([]core.Interval, nT)
		competing := make([]core.Competing, nC)
		for i := range competing {
			competing[i] = core.Competing{Interval: r.Intn(nT)}
		}
		b, err := core.NewBuilder(events, intervals, competing, nU, 7, rep)
		if err != nil {
			t.Fatal(err)
		}
		row := make([]float32, nE+nC)
		act := make([]float32, nT)
		for u := 0; u < nU; u++ {
			for i := range row {
				row[i] = 0
				if r.Float64() < density {
					row[i] = float32(r.Range(0.05, 1))
				}
			}
			for i := range act {
				act[i] = float32(r.Float64())
			}
			if err := b.AddUser(row, act); err != nil {
				t.Fatal(err)
			}
		}
		inst, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	return build(core.RepDense), build(core.RepSparse)
}

// TestSparseDenseSchedulersBitIdentical is the sparse-representation
// acceptance gate: all six schedulers must produce bit-identical schedules,
// utilities and work counters on sparse vs dense builds of the same
// instance, at several worker counts (sequential, mid, oversubscribed) and
// in both engine shard regimes (|U| within one 8192-user shard and spanning
// several).
func TestSparseDenseSchedulersBitIdentical(t *testing.T) {
	type shape struct {
		seed           uint64
		nE, nT, nC, nU int
		density        float64
	}
	shapes := []shape{
		{seed: 61, nE: 24, nT: 8, nC: 10, nU: 400, density: 0.07},
	}
	if !testing.Short() {
		// Multi-shard users: 10_000 > the engine's 8192-user shard.
		shapes = append(shapes, shape{seed: 62, nE: 10, nT: 4, nC: 5, nU: 10_000, density: 0.04})
	}
	for _, sh := range shapes {
		dense, sparse := sparseDensePair(t, sh.seed, sh.nE, sh.nT, sh.nC, sh.nU, sh.density)
		for _, workers := range []int{0, 3, 8} {
			for _, name := range Names() {
				run := func(inst *core.Instance) *Result {
					s, err := NewWithOptions(name, 7, core.ScorerOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					res, err := s.Schedule(inst, 6)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					return res
				}
				rd, rs := run(dense), run(sparse)
				if rd.Utility != rs.Utility {
					t.Errorf("seed %d %s workers=%d: utility %v dense vs %v sparse",
						sh.seed, name, workers, rd.Utility, rs.Utility)
				}
				if rd.Counters != rs.Counters {
					t.Errorf("seed %d %s workers=%d: counters %+v dense vs %+v sparse",
						sh.seed, name, workers, rd.Counters, rs.Counters)
				}
				gd, gs := rd.Schedule.Assignments(), rs.Schedule.Assignments()
				if len(gd) != len(gs) {
					t.Fatalf("seed %d %s workers=%d: %d selections dense vs %d sparse",
						sh.seed, name, workers, len(gd), len(gs))
				}
				for j := range gd {
					if gd[j] != gs[j] {
						t.Errorf("seed %d %s workers=%d: selection %d = %+v dense vs %+v sparse",
							sh.seed, name, workers, j, gd[j], gs[j])
					}
				}
			}
		}
	}
}

// TestRecycledSumsBitIdentical: every scheduler, dense and sparse, solves
// bit-identically (utility, attendances, schedule, ScoreEvals, Examined) on
// interest sums its engine recycled through Schedule.Release as on fresh
// ones, and the recycled run allocates at least one sum per non-empty
// interval less than a run on a warm engine with nothing to lend.
func TestRecycledSumsBitIdentical(t *testing.T) {
	const nU = 1531
	dense, sparse := sparseDensePair(t, 64, 20, 5, 6, nU, 0.06)
	for label, inst := range map[string]*core.Instance{"dense": dense, "sparse": sparse} {
		for _, name := range Names() {
			// run solves on en (a private engine when nil) and reports the
			// bytes the solve allocated.
			run := func(en *score.Engine) (*Result, uint64) {
				s, err := New(name, 7)
				if err != nil {
					t.Fatal(err)
				}
				if en != nil {
					s = WithEngine(s, en)
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := s.Schedule(inst, 9)
				runtime.ReadMemStats(&after)
				if err != nil {
					t.Fatalf("%s %s: %v", label, name, err)
				}
				return res, after.TotalAlloc - before.TotalAlloc
			}
			en, err := score.New(inst, core.ScorerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, _ := run(nil)
			warm, _ := run(en)           // fills the prefix memo
			fresh, freshBytes := run(en) // nothing to lend yet
			warm.Schedule.Release()
			fresh.Schedule.Release()
			got, gotBytes := run(en)
			en.Close()
			if math.Float64bits(got.Utility) != math.Float64bits(want.Utility) || got.Counters != want.Counters {
				t.Fatalf("%s %s: utility %x counters %+v on recycled sums, %x %+v fresh",
					label, name, got.Utility, got.Counters, want.Utility, want.Counters)
			}
			ga, wa := got.Schedule.Assignments(), want.Schedule.Assignments()
			if !slices.Equal(ga, wa) {
				t.Fatalf("%s %s: schedule %v on recycled sums, %v fresh", label, name, ga, wa)
			}
			for i := range got.Attendance {
				if math.Float64bits(got.Attendance[i]) != math.Float64bits(want.Attendance[i]) {
					t.Fatalf("%s %s: ω[%d] %x on recycled sums, %x fresh", label, name, i, got.Attendance[i], want.Attendance[i])
				}
			}
			intervals := map[int]bool{}
			for _, a := range ga {
				intervals[a.Interval] = true
			}
			if sums := uint64(len(intervals) * nU * 8); gotBytes+sums > freshBytes {
				t.Errorf("%s %s: recycled run allocated %d B against %d B with nothing to lend; %d B of sums should be saved",
					label, name, gotBytes, freshBytes, sums)
			}
		}
	}
}
