package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// mutateChainStep applies one mixed mutation to a snapshot of inst and
// returns the successor plus the delta describing it. Step index varies the
// touched cells so successive steps dirty different parts.
func mutateChainStep(t *testing.T, inst *Instance, step int) (*Instance, ScorerDelta) {
	t.Helper()
	next := inst.Snapshot()
	nE, nT, nU := next.NumEvents(), next.NumIntervals(), next.NumUsers()
	e1 := step % nE
	e2 := (step*3 + 1) % nE
	next.SetInterest(step%nU, e1, 0.73)
	next.SetInterest((step+2)%nU, e2, 0)
	d := ScorerDelta{Events: []int{e1, e2}}
	if next.NumCompeting() > 0 {
		c := step % next.NumCompeting()
		next.SetCompetingInterest((step+1)%nU, c, 0.31)
		d.CompIntervals = append(d.CompIntervals, next.Competing[c].Interval)
	}
	ta := (step * 2) % nT
	next.SetActivity((step+3)%nU, ta, 0.57)
	d.ActIntervals = append(d.ActIntervals, ta)
	if step%2 == 1 {
		col := make([]float32, nU)
		for u := range col {
			if u%3 == step%3 {
				col[u] = 0.42
			}
		}
		tc := (step + 1) % nT
		if err := next.AddCompeting(Competing{Interval: tc}, col); err != nil {
			t.Fatal(err)
		}
		d.CompIntervals = append(d.CompIntervals, tc)
	}
	return next, d
}

// sameScorerBits asserts the two scorers hold bitwise-identical precompute
// and produce bitwise-identical scores over a probe schedule.
func sameScorerBits(t *testing.T, cold, warm *Scorer) {
	t.Helper()
	inst := cold.inst
	for tt := range cold.compSum {
		a, b := cold.compSum[tt], warm.compSum[tt]
		if (a == nil) != (b == nil) {
			t.Fatalf("compSum[%d] nil-ness differs: cold=%v warm=%v", tt, a == nil, b == nil)
		}
		for u := range a {
			if a[u] != b[u] {
				t.Fatalf("compSum[%d][%d]: cold=%x warm=%x", tt, u, a[u], b[u])
			}
		}
	}
	if (cold.act == nil) != (warm.act == nil) {
		t.Fatalf("weighted activity nil-ness differs")
	}
	for tt := range cold.act {
		for u := range cold.act[tt] {
			if cold.act[tt][u] != warm.act[tt][u] {
				t.Fatalf("act[%d][%d]: cold=%x warm=%x", tt, u, cold.act[tt][u], warm.act[tt][u])
			}
		}
	}
	// Probe Eq. 4 end to end: empty schedule, then a partially filled one.
	probe := func(s *Schedule) {
		for e := 0; e < inst.NumEvents(); e++ {
			for tt := 0; tt < inst.NumIntervals(); tt++ {
				a, b := cold.Score(s, e, tt), warm.Score(s, e, tt)
				if a != b {
					t.Fatalf("Score(e=%d,t=%d): cold=%x warm=%x", e, tt, a, b)
				}
			}
		}
	}
	s := NewSchedule(inst)
	probe(s)
	for e := 0; e < inst.NumEvents() && s.Len() < 3; e++ {
		for tt := 0; tt < inst.NumIntervals(); tt++ {
			if s.Valid(e, tt) {
				if err := s.Assign(e, tt); err != nil {
					t.Fatal(err)
				}
				break
			}
		}
	}
	probe(s)
	if cu, wu := cold.Utility(s), warm.Utility(s); cu != wu {
		t.Fatalf("Utility: cold=%x warm=%x", cu, wu)
	}
}

// TestNewScorerFromDeltaBitIdentical drives a chain of mixed mutations
// (interest, competing interest, activity, AddCompeting) over dense and
// sparse instances, with and without ScorerOptions extensions, asserting at
// every step that the delta-rebuilt scorer is bitwise-identical to a cold
// build of the same snapshot, and that with UserWeights exactly the clean
// intervals share the previous scorer's weighted-activity columns.
func TestNewScorerFromDeltaBitIdentical(t *testing.T) {
	dense, sparse := buildPair(t, 11, 7, 4, 5, 60, 0.4)
	for name, inst := range map[string]*Instance{"dense": dense, "sparse": sparse} {
		for _, withOpts := range []bool{false, true} {
			opts := ScorerOptions{}
			if withOpts {
				w := make([]float64, inst.NumUsers())
				costs := make([]float64, inst.NumEvents())
				for u := range w {
					w[u] = 0.5 + float64(u%4)*0.25
				}
				for e := range costs {
					costs[e] = float64(e) * 0.01
				}
				opts = ScorerOptions{UserWeights: w, EventCost: costs}
			}
			t.Run(name, func(t *testing.T) {
				cur := inst
				prev, err := NewScorerWithOptions(cur, opts)
				if err != nil {
					t.Fatal(err)
				}
				for step := 0; step < 4; step++ {
					next, d := mutateChainStep(t, cur, step)
					cold, err := NewScorerWithOptions(next, opts)
					if err != nil {
						t.Fatal(err)
					}
					warm, err := NewScorerFromDelta(prev, next, opts, d)
					if err != nil {
						t.Fatal(err)
					}
					sameScorerBits(t, cold, warm)
					if withOpts {
						// Clean intervals share the previous scorer's
						// weighted-activity column; dirty ones are rebuilt.
						dirty := markSet(d.ActIntervals, next.NumIntervals())
						for tt := range warm.act {
							if shared := &warm.act[tt][0] == &prev.act[tt][0]; shared == dirty[tt] {
								t.Fatalf("step %d interval %d: shared=%v, dirty=%v", step, tt, shared, dirty[tt])
							}
						}
					}
					cur, prev = next, warm
				}
			})
		}
	}
}

// TestScorerDeltaMerge: merging normalizes (sorted, deduplicated) and unions.
func TestScorerDeltaMerge(t *testing.T) {
	a := ScorerDelta{Events: []int{3, 1}, CompIntervals: []int{2}}
	b := ScorerDelta{Events: []int{1, 0}, ActIntervals: []int{1, 1}}
	m := a.Merge(b)
	want := ScorerDelta{Events: []int{0, 1, 3}, CompIntervals: []int{2}, ActIntervals: []int{1}}
	eq := func(x, y []int) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if !eq(m.Events, want.Events) || !eq(m.CompIntervals, want.CompIntervals) || !eq(m.ActIntervals, want.ActIntervals) {
		t.Fatalf("merge = %+v, want %+v", m, want)
	}
	if !(ScorerDelta{}).Empty() || m.Empty() {
		t.Fatal("Empty() misreports")
	}
}

// TestNewScorerFromDeltaRejects: shape/option mismatches and bad indices
// fail loudly instead of building a silently stale scorer.
func TestNewScorerFromDeltaRejects(t *testing.T) {
	dense, _ := buildPair(t, 5, 4, 3, 2, 10, 1)
	sc := NewScorer(dense)
	if _, err := NewScorerFromDelta(nil, dense, ScorerOptions{}, ScorerDelta{}); err == nil {
		t.Fatal("nil prev accepted")
	}
	if _, err := NewScorerFromDelta(sc, dense, ScorerOptions{}, ScorerDelta{Events: []int{99}}); err == nil {
		t.Fatal("out-of-range event accepted")
	}
	if _, err := NewScorerFromDelta(sc, dense, ScorerOptions{}, ScorerDelta{CompIntervals: []int{-1}}); err == nil {
		t.Fatal("out-of-range interval accepted")
	}
	w := make([]float64, dense.NumUsers())
	if _, err := NewScorerFromDelta(sc, dense, ScorerOptions{UserWeights: w}, ScorerDelta{}); err == nil || !strings.Contains(err.Error(), "weight-option") {
		t.Fatalf("weight-option mismatch not rejected: %v", err)
	}
	other, _ := buildPair(t, 5, 4, 3, 2, 11, 1)
	if _, err := NewScorerFromDelta(sc, other, ScorerOptions{}, ScorerDelta{}); err == nil {
		t.Fatal("shape mismatch accepted")
	}
}

// TestPlainScorerBitIdentical: the plain view of a weighted and costed
// scorer — built cold, and built warm through a chain of NewScorerFromDelta
// rebuilds — evaluates Utility and EventAttendance to the same bits as
// NewScorer on the same snapshot, and a scorer without options is its own
// plain view.
func TestPlainScorerBitIdentical(t *testing.T) {
	dense, sparse := buildPair(t, 23, 7, 4, 5, 60, 0.4)
	for name, inst := range map[string]*Instance{"dense": dense, "sparse": sparse} {
		t.Run(name, func(t *testing.T) {
			w := make([]float64, inst.NumUsers())
			for u := range w {
				w[u] = 0.5 + float64(u%4)*0.25
			}
			costs := make([]float64, inst.NumEvents())
			for e := range costs {
				costs[e] = 0.1 + float64(e)*0.01
			}
			opts := ScorerOptions{UserWeights: w, EventCost: costs}
			check := func(label string, sc *Scorer) {
				t.Helper()
				ref := NewScorer(sc.Instance())
				if ref.Plain() != ref {
					t.Fatalf("%s: a scorer without options is not its own plain view", label)
				}
				plain := sc.Plain()
				if plain == sc {
					t.Fatalf("%s: a weighted, costed scorer is its own plain view", label)
				}
				s := NewSchedule(sc.Instance())
				for e := 0; e < sc.Instance().NumEvents() && s.Len() < 4; e++ {
					for tt := 0; tt < sc.Instance().NumIntervals(); tt++ {
						if s.Valid(e, tt) {
							if err := s.Assign(e, tt); err != nil {
								t.Fatal(err)
							}
							break
						}
					}
				}
				if s.Len() < 2 {
					t.Fatalf("%s: probe schedule has %d assignments", label, s.Len())
				}
				if a, b := plain.Utility(s), ref.Utility(s); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%s: plain Utility %x, NewScorer %x", label, a, b)
				}
				if sc.Utility(s) == ref.Utility(s) {
					t.Fatalf("%s: options did not change Utility; the probe proves nothing", label)
				}
				for _, a := range s.Assignments() {
					x, y := plain.EventAttendance(s, a.Event), ref.EventAttendance(s, a.Event)
					if math.Float64bits(x) != math.Float64bits(y) {
						t.Fatalf("%s: plain EventAttendance(e%d) %x, NewScorer %x", label, a.Event, x, y)
					}
				}
			}
			cur := inst
			sc, err := NewScorerWithOptions(cur, opts)
			if err != nil {
				t.Fatal(err)
			}
			check("cold", sc)
			for step := 0; step < 4; step++ {
				next, d := mutateChainStep(t, cur, step)
				if sc, err = NewScorerFromDelta(sc, next, opts, d); err != nil {
					t.Fatal(err)
				}
				check(fmt.Sprintf("warm step %d", step), sc)
				cur = next
			}
		})
	}
}
