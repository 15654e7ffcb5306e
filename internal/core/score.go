package core

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
	inst := sc.inst
	act := sc.scoreActivityCol(t)
	comp := sc.compSum[t]
	assigned := s.assignedInterestSum(t) // non-nil: e is assigned to t

	total := 0.0
	if inst.sparse != nil {
		// The dense loop below skips µ = 0 users explicitly, so iterating
		// only the nonzero list accumulates the same terms in the same
		// (ascending user) order — identical bits.
		col := inst.sparse[e]
		for i, uu := range col.Users {
			u := int(uu)
			m := float64(col.Mu[i])
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
	mu := inst.interestCol(e)
	for u, mf := range mu {
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

// Utility computes the total utility Ω(S) (Eq. 3), minus the scheduled
// events' costs when the profit-oriented variant is enabled. It exploits
// that the per-interval attendance Σ_{e∈E_t} ω_e^t collapses to
// Σ_u σ(u,t)·A_u/(C_u+A_u), so the whole utility is one pass per non-empty
// interval.
func (sc *Scorer) Utility(s *Schedule) float64 {
	inst := sc.inst
	total := 0.0
	if sc.cost != nil {
		for _, a := range s.Assignments() {
			total -= sc.cost[a.Event]
		}
	}
	for t := 0; t < len(inst.Intervals); t++ {
		assigned := s.assignedInterestSum(t)
		if assigned == nil {
			continue
		}
		comp := sc.compSum[t]
		act := sc.scoreActivityCol(t)
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
