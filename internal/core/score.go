package core

import "slices"

// Scorer evaluates the attendance model of Section 2.1: the Luce-choice
// attendance probability ρ (Eq. 1), expected attendance ω (Eq. 2), total
// utility Ω (Eq. 3) and the marginal assignment score (Eq. 4).
//
// The scorer precomputes, per interval t, the per-user competing interest
// sum Σ_{c∈C_t} µ(u, c). That precomputation costs O(|U|·|C|) — the first
// term of every complexity bound in Section 3 — and afterwards each
// assignment score costs exactly one pass over the users, the unit the
// paper's "number of computations" metric counts. Thanks to the instance's
// event-major storage the pass is a sequential scan over four parallel
// arrays.
type Scorer struct {
	inst *Instance
	// compSum[t][u] = Σ_{c∈C_t} µ(u, c); nil for intervals with no
	// competing events (treated as all zeros).
	compSum [][]float64
	// act, when non-nil, replaces the instance's activity columns with
	// user-weighted copies (ScorerOptions.UserWeights), one per interval.
	// Columns are never written after construction, so a warm rebuild
	// shares the clean ones.
	act [][]float32
	// cost, when non-nil, holds per-event organization costs subtracted
	// from scores and utility (the profit-oriented variant).
	cost []float64
	// off is the sparse loop's per-shard nonzero offset table (see
	// kernel_sparse.go); nil on a dense instance, which is what makes
	// scoreUserRange run the dense loop. Immutable after construction.
	off [][]int
}

// NewScorer builds a scorer for the instance, precomputing the competing
// interest sums (and, on a sparse instance, the shard offsets).
func NewScorer(inst *Instance) *Scorer {
	sc := &Scorer{
		inst:    inst,
		compSum: make([][]float64, inst.NumIntervals()),
		off:     newShardOffsets(inst, nil, nil),
	}
	base := len(inst.Events)
	for ci, c := range inst.Competing {
		sum := sc.compSum[c.Interval]
		if sum == nil {
			sum = make([]float64, inst.NumUsers())
			sc.compSum[c.Interval] = sum
		}
		inst.addInterestColInto(base+ci, sum)
	}
	return sc
}

// Instance returns the instance the scorer was built for.
func (sc *Scorer) Instance() *Instance { return sc.inst }

// Plain returns the scorer without its ScorerOptions: the receiver itself
// when it has none, otherwise a view that drops the weighted activity and
// the costs and shares the rest. Its Utility and EventAttendance are
// bit-identical to NewScorer(sc.Instance())'s, warm-built scorers included:
// compSum and off never depend on options, are immutable after
// construction, and NewScorerFromDelta rebuilds them bit for bit.
func (sc *Scorer) Plain() *Scorer {
	if sc.act == nil && sc.cost == nil {
		return sc
	}
	return &Scorer{inst: sc.inst, compSum: sc.compSum, off: sc.off}
}

// CompetingSum returns Σ_{c∈C_t} µ(u, c).
func (sc *Scorer) CompetingSum(user, interval int) float64 {
	if sc.compSum[interval] == nil {
		return 0
	}
	return sc.compSum[interval][user]
}

// Score computes the assignment score of α_e^t against schedule s (Eq. 4):
// the gain in expected attendance from adding event e to interval t,
// accounting for the attendance the events already in t lose to e.
//
// With A_u = Σ_{p∈E_t(S)} µ(u,p), C_u = Σ_{c∈C_t} µ(u,c) and m = µ(u,e):
//
//	score = Σ_u σ(u,t) · [ (A_u+m)/(C_u+A_u+m) − A_u/(C_u+A_u) ]
//
// which is Eq. 4 folded into a single pass over the users. Terms with a zero
// denominator contribute zero (a user with no interest in anything attends
// nothing). With ScorerOptions, σ is the weighted activity and the event's
// organization cost is subtracted (profit-oriented variant).
func (sc *Scorer) Score(s *Schedule, e, t int) float64 {
	return sc.scoreUserRange(s, e, t, 0, sc.inst.numUsers) - sc.eventCost(e)
}

// ScoreUsers computes the Eq. 4 gain of α_e^t restricted to users [lo, hi),
// excluding the event's organization cost. It is the shard primitive of the
// internal/score engine: summing ScoreUsers over a partition of [0, |U|) in
// shard order and subtracting AssignCost(e) reproduces Score exactly when the
// partition is a single shard, and deterministically (independent of which
// goroutine computed which shard) otherwise.
func (sc *Scorer) ScoreUsers(s *Schedule, e, t, lo, hi int) float64 {
	return sc.scoreUserRange(s, e, t, lo, hi)
}

// AssignCost returns the organization cost Score subtracts for event e: the
// ScorerOptions.EventCost entry in the profit-oriented variant, 0 otherwise.
func (sc *Scorer) AssignCost(e int) float64 { return sc.eventCost(e) }

// denomEps makes the user loops of Score branch-free: a zero-interest user
// would need an "if denominator == 0" skip, but that branch is
// data-dependent and unpredictable (measured ~3× slowdown on sparse
// interest matrices). Adding 1e-300 instead maps x/0 to 0 (numerators are 0
// whenever the true denominator is) and is exact otherwise: every nonzero
// denominator in the model is ≥ the smallest positive float32 (~1e-45),
// whose float64 ulp (~1e-61) dwarfs 1e-300, so the addition is an exact
// no-op there.
const denomEps = 1e-300

// Rho computes ρ(u, e, t): the probability user u attends event e given that
// the schedule assigns e to interval t (Eq. 1). It panics if e is not
// assigned in s.
func (sc *Scorer) Rho(s *Schedule, user, e int) float64 {
	t, ok := s.AssignedInterval(e)
	if !ok {
		panic("core: Rho on an unassigned event")
	}
	inst := sc.inst
	m := inst.Interest(user, e)
	den := sc.CompetingSum(user, t)
	if sum := s.assignedInterestSum(t); sum != nil {
		den += sum[user]
	}
	if den == 0 {
		return 0
	}
	return inst.Activity(user, t) * m / den
}

// EventAttendance computes ω_e^t, the expected attendance of scheduled event
// e under schedule s (Eq. 2): Σ_u ρ(u, e, t). With user weights it is the
// expected weighted attendance (costs do not apply: ω is attendance, not
// profit).
func (sc *Scorer) EventAttendance(s *Schedule, e int) float64 {
	t, ok := s.AssignedInterval(e)
	if !ok {
		panic("core: EventAttendance on an unassigned event")
	}
	act := sc.scoreActivityCol(t)
	comp := sc.compSum[t]
	assigned := s.assignedInterestSum(t) // non-nil: e is assigned to t
	if sc.inst.sparse != nil {
		return sparseAttendance(sc.inst.sparse[e], assigned, comp, act)
	}
	total := 0.0
	for u, mf := range sc.inst.interestCol(e) {
		m := float64(mf)
		if m == 0 {
			continue
		}
		den := assigned[u]
		if comp != nil {
			den += comp[u]
		}
		if den == 0 {
			continue
		}
		total += float64(act[u]) * m / den
	}
	return total
}

// sparseAttendance is EventAttendance over a sparse column. The dense loop
// skips µ = 0 users explicitly, so iterating only the nonzero list
// accumulates the same terms in the same (ascending user) order — identical
// bits.
func sparseAttendance(col SparseCol, assigned, comp []float64, act []float32) float64 {
	total := 0.0
	for i, uu := range col.Users {
		u := int(uu)
		den := assigned[u]
		if comp != nil {
			den += comp[u]
		}
		if den == 0 {
			continue
		}
		total += float64(act[u]) * float64(col.Mu[i]) / den
	}
	return total
}

// Utility computes the total utility Ω(S) (Eq. 3), minus the scheduled
// events' costs when the profit-oriented variant is enabled. It is Evaluate
// without the per-assignment attendances: the same pass, the same bits.
func (sc *Scorer) Utility(s *Schedule) float64 { return sc.evaluate(s, nil) }

// Evaluate computes Ω(S) as Utility does together with ω (Eq. 2) of every
// assignment, in selection order (Schedule.Assignments), in one pass per
// non-empty interval instead of one for Ω plus one per event. Ω uses that the
// per-interval attendance Σ_{e∈E_t} ω_e^t collapses to
// Σ_u σ(u,t)·A_u/(C_u+A_u). Each value keeps its own accumulator, terms and
// skip rules (A_u = 0 for Ω; µ = 0 or a zero denominator for ω), so Ω is
// bit-identical to a scan of all users and each ω to EventAttendance.
//
// On a sparse instance the pass merges the interval's assigned columns in
// ascending user order: a user outside all of them has A_u = 0 exactly, so
// visiting only their union adds the same Ω terms in the same order. An
// interval UnassignLast left non-empty may hold float dust anywhere, so it
// is scanned in full.
func (sc *Scorer) Evaluate(s *Schedule) (utility float64, attendance []float64) {
	attendance = make([]float64, s.Len())
	return sc.evaluate(s, attendance), attendance
}

// evaluate is the one Ω implementation: Evaluate with omega, Utility with
// omega nil (no ω terms). omega[i] receives ω of s.order[i].
func (sc *Scorer) evaluate(s *Schedule, omega []float64) float64 {
	s.live()
	inst := sc.inst
	total := 0.0
	if sc.cost != nil {
		for _, a := range s.order {
			total -= sc.cost[a.Event]
		}
	}
	// Per non-empty interval: ω accumulators and merge cursors, one per
	// event assigned there, and the events' slots in omega.
	var acc []float64
	var slots, next []int
	var head []uint32
	var cols []SparseCol
	for t, assigned := range s.assignedSum {
		if assigned == nil {
			continue
		}
		evs := s.byInterval[t]
		acc = slices.Grow(acc[:0], len(evs))[:len(evs)]
		clear(acc)
		comp := sc.compSum[t]
		act := sc.scoreActivityCol(t)
		switch {
		case inst.sparse == nil:
			if omega == nil {
				total = evalScan(total, assigned, comp, act)
			} else {
				total = sc.evalDense(total, assigned, comp, act, evs, acc)
			}
		case s.undone[t]:
			total = evalScan(total, assigned, comp, act)
			if omega != nil {
				for j, e := range evs {
					acc[j] = sparseAttendance(inst.sparse[e], assigned, comp, act)
				}
			}
		default:
			cols = cols[:0]
			for _, e := range evs {
				cols = append(cols, inst.sparse[e])
			}
			next = slices.Grow(next[:0], len(evs))[:len(evs)]
			head = slices.Grow(head[:0], len(evs))[:len(evs)]
			total = evalMerge(total, assigned, comp, act, cols, next, head, acc)
		}
		if omega == nil {
			continue
		}
		// byInterval[t] is s.order's subsequence at t, in the same order.
		slots = slots[:0]
		for i, a := range s.order {
			if a.Interval == t {
				slots = append(slots, i)
			}
		}
		for j, i := range slots {
			omega[i] = acc[j]
		}
	}
	return total
}

// evalScan adds one interval's Ω terms over every user.
func evalScan(total float64, assigned, comp []float64, act []float32) float64 {
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
	return total
}

// evalDense is evalScan fused with the ω terms of the dense columns of evs,
// accumulated into acc.
func (sc *Scorer) evalDense(total float64, assigned, comp []float64, act []float32, evs []int, acc []float64) float64 {
	mus := make([][]float32, len(evs))
	for j, e := range evs {
		mus[j] = sc.inst.interestCol(e)
	}
	for u, a := range assigned {
		den := a
		if comp != nil {
			den += comp[u]
		}
		x := float64(act[u])
		if a != 0 {
			total += x * a / den
		}
		if den == 0 {
			continue
		}
		for j, mu := range mus {
			if m := float64(mu[u]); m != 0 {
				acc[j] += x * m / den
			}
		}
	}
	return total
}

// evalMerge adds one interval's Ω terms over the union of its assigned
// sparse columns, visited in ascending user order by merging them, and
// accumulates each column's ω terms into acc. next (a cursor per column) and
// head (the user under it) are scratch of len(cols). Every union user has
// A_u ≥ its µ > 0 in an interval UnassignLast has not touched, so no ω
// denominator is zero here and the ω skip rule never fires.
func evalMerge(total float64, assigned, comp []float64, act []float32, cols []SparseCol, next []int, head []uint32, acc []float64) float64 {
	if len(cols) == 2 {
		return evalMerge2(total, assigned, comp, act, cols[0], cols[1], acc)
	}
	const done = ^uint32(0) // above every user index
	for j, c := range cols {
		next[j], head[j] = 0, done
		if len(c.Users) > 0 {
			head[j] = c.Users[0]
		}
	}
	for {
		uu := done
		for _, h := range head {
			uu = min(uu, h)
		}
		if uu == done {
			return total
		}
		u := int(uu)
		a := assigned[u]
		den := a
		if comp != nil {
			den += comp[u]
		}
		x := float64(act[u])
		if a != 0 {
			total += x * a / den
		}
		for j, h := range head {
			if h != uu {
				continue
			}
			c := &cols[j]
			i := next[j]
			acc[j] += x * float64(c.Mu[i]) / den
			i++
			next[j], head[j] = i, done
			if i < len(c.Users) {
				head[j] = c.Users[i]
			}
		}
	}
}

// evalMerge2 is evalMerge for a two-column interval, with the cursors and
// accumulators in locals instead of loops over columns. It is the shape of
// a resolve-sparse push (k = 20 over |T| = 10): there it cut latency_ms.p50
// by about 15% against evalMerge alone.
func evalMerge2(total float64, assigned, comp []float64, act []float32, c0, c1 SparseCol, acc []float64) float64 {
	const done = ^uint32(0)
	acc0, acc1 := acc[0], acc[1]
	i, j := 0, 0
	for {
		n0, n1 := done, done
		if i < len(c0.Users) {
			n0 = c0.Users[i]
		}
		if j < len(c1.Users) {
			n1 = c1.Users[j]
		}
		uu := min(n0, n1)
		if uu == done {
			break
		}
		u := int(uu)
		a := assigned[u]
		den := a
		if comp != nil {
			den += comp[u]
		}
		x := float64(act[u])
		if a != 0 {
			total += x * a / den
		}
		if n0 == uu {
			acc0 += x * float64(c0.Mu[i]) / den
			i++
		}
		if n1 == uu {
			acc1 += x * float64(c1.Mu[j]) / den
			j++
		}
	}
	acc[0], acc[1] = acc0, acc1
	return total
}
