package core

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// scanUtility is the reference Ω: every user of every non-empty interval,
// skipping A_u = 0, in one accumulator after the costs. Evaluate must match
// it bit for bit, on sparse instances too, where it visits only the union of
// the assigned columns.
func scanUtility(sc *Scorer, s *Schedule) float64 {
	total := 0.0
	if sc.cost != nil {
		for _, a := range s.Assignments() {
			total -= sc.cost[a.Event]
		}
	}
	for t := range sc.inst.Intervals {
		assigned := s.assignedInterestSum(t)
		if assigned == nil {
			continue
		}
		comp, act := sc.compSum[t], sc.scoreActivityCol(t)
		for u, a := range assigned {
			if a == 0 {
				continue
			}
			den := a
			if comp != nil {
				den += comp[u]
			}
			total += float64(act[u]) * a / den
		}
	}
	return total
}

// checkEvaluate compares Evaluate with the reference Ω, Utility and the
// per-event EventAttendance, bit for bit, and returns the evaluation.
func checkEvaluate(t *testing.T, label string, sc *Scorer, s *Schedule) (float64, []float64) {
	t.Helper()
	u, att := sc.Evaluate(s)
	if want := scanUtility(sc, s); math.Float64bits(u) != math.Float64bits(want) {
		t.Fatalf("%s: Evaluate Ω = %x, full scan %x", label, u, want)
	}
	if want := sc.Utility(s); math.Float64bits(u) != math.Float64bits(want) {
		t.Fatalf("%s: Evaluate Ω = %x, Utility %x", label, u, want)
	}
	if len(att) != s.Len() {
		t.Fatalf("%s: %d attendances for %d assignments", label, len(att), s.Len())
	}
	for i, a := range s.Assignments() {
		if want := sc.EventAttendance(s, a.Event); math.Float64bits(att[i]) != math.Float64bits(want) {
			t.Fatalf("%s: ω of e%d@t%d = %x, EventAttendance %x", label, a.Event, a.Interval, att[i], want)
		}
	}
	return u, att
}

// dustSchedule builds a three-user instance in the given representation and
// a schedule whose only interval went through Assign A, B, C then
// UnassignLast twice: user 1, in B and C but not A, is left with a nonzero
// float-dust sum (µ_B is 2^-33-small against µ_C = 0.9, so adding and
// subtracting them rounds). A pass that visited only A's users would miss it.
func dustSchedule(t *testing.T, rep Rep, sums *SumFreeList) (*Instance, *Schedule) {
	t.Helper()
	events := []Event{{Location: 0, Resources: 1}, {Location: 1, Resources: 1}, {Location: 2, Resources: 1}}
	b, err := NewBuilder(events, make([]Interval, 1), []Competing{{Interval: 0}}, 3, 6, rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range [][]float32{{0.5, 0, 0, 0.2}, {0, 1.2345678e-10, 0.9, 0.1}, {0, 0, 0.3, 0}} {
		if err := b.AddUser(row, []float32{0.7}); err != nil {
			t.Fatal(err)
		}
	}
	inst, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduleFrom(inst, sums)
	for e := range events {
		mustAssign(t, s, e, 0)
	}
	for i := 0; i < 2; i++ {
		if err := s.UnassignLast(); err != nil {
			t.Fatal(err)
		}
	}
	if s.assignedInterestSum(0)[1] == 0 {
		t.Fatal("undo left no float dust; the case tests nothing")
	}
	return inst, s
}

// evaluateOptions returns the option sets the evaluation tests cover: plain,
// user weights, event costs, and both.
func evaluateOptions(r *randx.RNG, nE, nU int) map[string]ScorerOptions {
	w := make([]float64, nU)
	for u := range w {
		w[u] = r.Range(0, 3)
	}
	c := make([]float64, nE)
	for e := range c {
		c[e] = r.Range(0, 0.5)
	}
	return map[string]ScorerOptions{
		"plain":   {},
		"weights": {UserWeights: w},
		"costs":   {EventCost: c},
		"both":    {UserWeights: w, EventCost: c},
	}
}

// fillSchedules assigns the same valid moves to both schedules, cycling
// events over intervals so several intervals hold several events.
func fillSchedules(t *testing.T, a, b *Schedule, nE, nT, want int) {
	t.Helper()
	for e := 0; e < nE && a.Len() < want; e++ {
		tt := (e * 7) % nT
		if !a.Valid(e, tt) {
			continue
		}
		if err := a.Assign(e, tt); err != nil {
			t.Fatal(err)
		}
		if err := b.Assign(e, tt); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvaluateMatchesUtilityAndAttendance: on dense and sparse builds of the
// same instance, plain, weighted and costed, Evaluate's Ω equals the full
// user scan and Utility, and each ω equals EventAttendance, bit for bit; the
// two representations agree. That holds again after UnassignLast has left
// intervals non-empty (float dust in their sums), and on the empty schedule.
func TestEvaluateMatchesUtilityAndAttendance(t *testing.T) {
	for _, density := range []float64{0.05, 0.3, 1} {
		const nE, nT, nC, nU = 14, 4, 5, 700
		dense, sparse := buildPair(t, 17, nE, nT, nC, nU, density)
		for label, opts := range evaluateOptions(randx.New(5), nE, nU) {
			dsc, err := NewScorerWithOptions(dense, opts)
			if err != nil {
				t.Fatal(err)
			}
			ssc, err := NewScorerWithOptions(sparse, opts)
			if err != nil {
				t.Fatal(err)
			}
			sD, sS := NewSchedule(dense), NewSchedule(sparse)
			if u, att := checkEvaluate(t, label+" empty", ssc, sS); u != 0 || len(att) != 0 {
				t.Fatalf("%s: empty schedule evaluates to %v, %v", label, u, att)
			}
			fillSchedules(t, sD, sS, nE, nT, 11)
			same := func(stage string) {
				t.Helper()
				du, datt := checkEvaluate(t, label+" dense "+stage, dsc, sD)
				su, satt := checkEvaluate(t, label+" sparse "+stage, ssc, sS)
				if math.Float64bits(du) != math.Float64bits(su) {
					t.Fatalf("%s %s density %v: dense Ω %x, sparse %x", label, stage, density, du, su)
				}
				for i := range datt {
					if math.Float64bits(datt[i]) != math.Float64bits(satt[i]) {
						t.Fatalf("%s %s density %v: ω[%d] dense %x, sparse %x", label, stage, density, i, datt[i], satt[i])
					}
				}
			}
			same("filled")
			for i := 0; i < 4; i++ {
				if err := sD.UnassignLast(); err != nil {
					t.Fatal(err)
				}
				if err := sS.UnassignLast(); err != nil {
					t.Fatal(err)
				}
			}
			undone := false
			for tt := 0; tt < nT; tt++ {
				_, exact := sS.Prefix(tt)
				undone = undone || (!exact && len(sS.EventsAt(tt)) > 0)
			}
			if !undone {
				t.Fatalf("%s: no interval left non-empty after UnassignLast", label)
			}
			same("undone")
		}
	}
	for _, rep := range []Rep{RepDense, RepSparse} {
		inst, s := dustSchedule(t, rep, nil)
		checkEvaluate(t, "float dust "+rep.String(), NewScorer(inst), s)
	}
}

// FuzzEvaluate drives random instances, options and assign/undo sequences
// through Evaluate on both representations: Ω must equal the full user scan
// and Utility, each ω EventAttendance, and dense must equal sparse, bit for
// bit.
func FuzzEvaluate(f *testing.F) {
	f.Add(uint64(1), uint8(6), uint8(3), uint8(2), uint16(150), uint8(20), uint8(12), uint8(0))
	f.Add(uint64(9), uint8(1), uint8(1), uint8(0), uint16(1), uint8(255), uint8(3), uint8(3))
	f.Add(uint64(33), uint8(12), uint8(5), uint8(4), uint16(400), uint8(90), uint8(40), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nE8, nT8, nC8 uint8, nU16 uint16, dens, steps, optSel uint8) {
		nE := 1 + int(nE8)%14
		nT := 1 + int(nT8)%5
		nC := int(nC8) % 5
		nU := 1 + int(nU16)%600
		dense, sparse := buildPair(t, seed, nE, nT, nC, nU, float64(dens)/255)
		r := randx.New(seed ^ 0x9e3779b97f4a7c15)
		var opts ScorerOptions
		if optSel&1 != 0 {
			opts.UserWeights = make([]float64, nU)
			for u := range opts.UserWeights {
				opts.UserWeights[u] = r.Range(0, 2)
			}
		}
		if optSel&2 != 0 {
			opts.EventCost = make([]float64, nE)
			for e := range opts.EventCost {
				opts.EventCost[e] = r.Range(0, 1)
			}
		}
		dsc, err := NewScorerWithOptions(dense, opts)
		if err != nil {
			t.Fatal(err)
		}
		ssc, err := NewScorerWithOptions(sparse, opts)
		if err != nil {
			t.Fatal(err)
		}
		sD, sS := NewSchedule(dense), NewSchedule(sparse)
		for i := 0; i < int(steps)%48; i++ {
			if sS.Len() > 0 && r.Intn(4) == 0 {
				if err := sD.UnassignLast(); err != nil {
					t.Fatal(err)
				}
				if err := sS.UnassignLast(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			e, tt := r.Intn(nE), r.Intn(nT)
			if !sD.Valid(e, tt) {
				continue
			}
			if err := sD.Assign(e, tt); err != nil {
				t.Fatal(err)
			}
			if err := sS.Assign(e, tt); err != nil {
				t.Fatal(err)
			}
		}
		du, datt := checkEvaluate(t, "dense", dsc, sD)
		su, satt := checkEvaluate(t, "sparse", ssc, sS)
		if math.Float64bits(du) != math.Float64bits(su) {
			t.Fatalf("dense Ω %x, sparse %x", du, su)
		}
		for i := range datt {
			if math.Float64bits(datt[i]) != math.Float64bits(satt[i]) {
				t.Fatalf("ω[%d] dense %x, sparse %x", i, datt[i], satt[i])
			}
		}
	})
}
