package core

// The scalar dense loop: the reference Eq. 4 implementation the sparse loop
// is tested against. Branch-free loops over the instance's dense event-major
// layout; see denomEps (score.go) for why the denominators carry an epsilon
// instead of a zero-check branch.

// scoreDenseRange computes the Eq. 4 gain restricted to users [lo, hi): one
// pass over four parallel arrays (µ column, activity column, competing sum,
// assigned sum), specialized per denominator case so intervals without
// competition or assignments skip the work entirely.
func (sc *Scorer) scoreDenseRange(s *Schedule, e, t, lo, hi int) float64 {
	mu := sc.inst.interestCol(e)[lo:hi]
	act := sc.scoreActivityCol(t)[lo:hi]
	comp := sc.compSum[t]
	assigned := s.assignedInterestSum(t)

	gain := 0.0
	switch {
	case comp == nil && assigned == nil:
		for u, mf := range mu {
			m := float64(mf)
			gain += float64(act[u]) * m / (m + denomEps)
		}
	case assigned == nil:
		comp := comp[lo:hi]
		for u, mf := range mu {
			m := float64(mf)
			gain += float64(act[u]) * m / (comp[u] + m + denomEps)
		}
	case comp == nil:
		assigned := assigned[lo:hi]
		for u, mf := range mu {
			a := assigned[u]
			m := float64(mf)
			gain += float64(act[u]) * ((a+m)/(a+m+denomEps) - a/(a+denomEps))
		}
	default:
		comp := comp[lo:hi]
		assigned := assigned[lo:hi]
		for u, mf := range mu {
			a := assigned[u]
			m := float64(mf)
			oldD := comp[u] + a
			gain += float64(act[u]) * ((a+m)/(oldD+m+denomEps) - a/(oldD+denomEps))
		}
	}
	return gain
}

// denseAddColInto accumulates a dense column: dst[u] += µ(u, h). Adding
// exact +0.0 for every zero cell is what makes the sparse accumulator —
// which skips them — bit-identical.
func denseAddColInto(inst *Instance, h int, dst []float64) {
	for u, v := range inst.interestCol(h) {
		dst[u] += float64(v)
	}
}

// denseSubColInto subtracts a dense column (UnassignLast's undo).
func denseSubColInto(inst *Instance, h int, dst []float64) {
	for u, v := range inst.interestCol(h) {
		dst[u] -= float64(v)
	}
}
