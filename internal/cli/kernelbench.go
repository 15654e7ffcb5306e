package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/randx"
	"repro/internal/seio"
)

// Kernelbench measures the two Eq. 4 loops in isolation: one full-range
// scoring pass per measurement, pinned to each of the four denominator cases
// (FREE: no competing interest and nothing assigned, COMP: competing only,
// ASSIGNED: assigned only, FULL: both), at 1%, 5% and 100% interest density.
// The scalar loop runs every user of a dense instance; the sparse loop runs
// the same problem through its nonzero lists, so its per-pass work — the
// "work" column, nonzeros instead of |U| — shrinks with density.
//
// Output is the sesbench row vocabulary (-json → {"rows": [...]}), so
// cmd/benchdiff compares runs exactly like the solver benchmarks: Utility
// carries the measured pass's gain (bit-stable, and equal across the two
// loops — the drift gate), ScoreEvals the rep count, and Elapsed the series
// wall time. CI keeps a baseline in bench/baseline/kernel/.
func Kernelbench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kernelbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		users   = fs.Int("users", 40_000, "users per instance")
		budget  = fs.Int64("terms", 30_000_000, "per-series term budget: reps = clamp(terms/work, 1, max-reps)")
		maxReps = fs.Int("max-reps", 2000, "rep ceiling per series (bounds low-density sparse runs)")
		jsonOut = fs.Bool("json", false, "write rows as JSON instead of a table")
		seed    = fs.Uint64("seed", 1, "instance seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var rows []exp.Row
	for _, pct := range []int{1, 5, 100} {
		r, err := benchKernels(*seed, *users, pct, *budget, *maxReps)
		if err != nil {
			return fail(stderr, "kernelbench", err)
		}
		rows = append(rows, r...)
	}
	if *jsonOut {
		if err := exp.WriteJSON(stdout, rows); err != nil {
			return fail(stderr, "kernelbench", err)
		}
		return 0
	}
	fmt.Fprintf(stdout, "%-8s %-9s %12s %8s %6s %12s %10s\n",
		"variant", "case", "density_pct", "work", "reps", "total(ms)", "ns/term")
	for _, r := range rows {
		work := int64(r.Users)
		terms := r.ScoreEvals * work
		fmt.Fprintf(stdout, "%-8s %-9s %12d %8d %6d %12.2f %10.2f\n",
			r.Dataset, r.Algorithm, r.X, work, r.ScoreEvals, seio.DurationMS(r.Elapsed),
			float64(r.Elapsed.Nanoseconds())/float64(terms))
	}
	return 0
}

// kernelCase pins one denominator case: the schedule state and target
// interval that make the scorer take exactly that branch.
type kernelCase struct {
	name     string
	assigned bool // measure against the partially filled schedule
	interval int  // 0 carries the competing events, 1 does not
}

var kernelCases = []kernelCase{
	{"FREE", false, 1},
	{"COMP", false, 0},
	{"ASSIGNED", true, 1},
	{"FULL", true, 0},
}

// benchKernels builds one dense+sparse instance pair at the given density
// and times both loops through all four cases.
func benchKernels(seed uint64, nU, pct int, budget int64, maxReps int) ([]exp.Row, error) {
	dense, err := kernelbenchInstance(seed, nU, pct, core.RepDense)
	if err != nil {
		return nil, err
	}
	sparse, err := kernelbenchInstance(seed, nU, pct, core.RepSparse)
	if err != nil {
		return nil, err
	}

	// The representation picks the loop; the names are the row labels.
	variants := []struct {
		name string
		inst *core.Instance
	}{{"scalar", dense}, {"sparse", sparse}}

	var rows []exp.Row
	for _, v := range variants {
		sc := core.NewScorer(v.inst)
		// Events 1 and 2 fill the case contexts; event 0 stays the measured
		// candidate. Interval 0 carries all competing events, interval 1 none.
		full := core.NewSchedule(v.inst)
		if err := full.Assign(1, 0); err != nil {
			return nil, err
		}
		if err := full.Assign(2, 1); err != nil {
			return nil, err
		}
		empty := core.NewSchedule(v.inst)
		// The sparse loop's per-pass work is the candidate column's
		// nonzero count; the scalar loop always streams |U|.
		work := int64(v.inst.ColNonzeros(0))
		if work == 0 {
			work = 1
		}
		reps := int(budget / work)
		if reps < 1 {
			reps = 1
		}
		if reps > maxReps {
			reps = maxReps
		}
		for _, kc := range kernelCases {
			s := empty
			if kc.assigned {
				s = full
			}
			gain := sc.Score(s, 0, kc.interval)
			start := time.Now()
			for i := 0; i < reps; i++ {
				sc.Score(s, 0, kc.interval)
			}
			elapsed := time.Since(start)
			rows = append(rows, exp.Row{
				Figure: "kernel", Dataset: v.name, Algorithm: kc.name,
				XName: "density_pct", X: pct,
				Events: v.inst.NumEvents(), Intervals: v.inst.NumIntervals(), Users: int(work),
				Utility: gain, ScoreEvals: int64(reps), Elapsed: elapsed,
			})
		}
	}
	return rows, nil
}

// kernelbenchInstance builds the fixed benchmark shape: four events (0 the
// measured candidate, 1-2 the case-context assignments), two intervals with
// every competing event pinned to interval 0, interest rows at the requested
// percent density from one seeded stream per representation.
func kernelbenchInstance(seed uint64, nU, pct int, rep core.Rep) (*core.Instance, error) {
	r := randx.New(seed)
	events := []core.Event{{Location: 0}, {Location: 1}, {Location: 2}, {Location: 3}}
	intervals := make([]core.Interval, 2)
	competing := []core.Competing{{Interval: 0}, {Interval: 0}}
	b, err := core.NewBuilder(events, intervals, competing, nU, 6, rep)
	if err != nil {
		return nil, err
	}
	density := float64(pct) / 100
	row := make([]float32, len(events)+len(competing))
	act := make([]float32, len(intervals))
	for u := 0; u < nU; u++ {
		for i := range row {
			row[i] = 0
			if r.Float64() < density {
				row[i] = float32(r.Range(0.1, 1))
			}
		}
		for i := range act {
			act[i] = float32(r.Float64())
		}
		if err := b.AddUser(row, act); err != nil {
			return nil, err
		}
	}
	return b.Build()
}
