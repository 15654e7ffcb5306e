package core

// The Eq. 4 kernel.
//
// Every scheduler's hot path — and sesd's warm re-solve loop — bottoms out in
// the same computation: the Eq. 4 gain of one assignment α_e^t accumulated
// over a range of users. The instance representation picks the loop:
//
//   - dense instances run the branch-free scalar loops over the event-major
//     layout (kernel_scalar.go);
//   - sparse instances iterate only a column's nonzeros, in ascending user
//     order, through a per-shard offset table built with the scorer
//     (kernel_sparse.go).
//
// The two loops are bit-identical: every µ = 0 term the sparse loop skips
// contributes exactly +0.0 to the dense accumulator.

// ShardUsers is the fixed user-shard width of the parallel scoring engine
// (internal/score reduces Eq. 4 passes in shards of exactly this many users,
// in shard order, which is what makes parallel results bit-identical). It is
// declared here because the sparse loop precomputes per-shard state against
// this grid: each column's [start, end) nonzero offsets per shard, resolved
// once at Scorer construction instead of binary-searching on every
// ScoreUsers call.
const ShardUsers = 8192

// scoreUserRange computes the Eq. 4 gain of α_e^t over users [lo, hi),
// excluding the event's organization cost: the single point every scoring
// path funnels through. The shard-offset table exists exactly when the
// instance is sparse.
func (sc *Scorer) scoreUserRange(s *Schedule, e, t, lo, hi int) float64 {
	if sc.off != nil {
		return sc.scoreSparseRange(s, e, t, lo, hi)
	}
	return sc.scoreDenseRange(s, e, t, lo, hi)
}
