package core

import "sort"

// The sparse loop: the Eq. 4 reference for instances whose interest matrix
// is stored as per-column nonzero lists.
//
// Its per-scorer state is the shard-offset table Scorer.off: off[e][i] is the
// index of the first nonzero of candidate event e's column with user ≥
// i·ShardUsers (and off[e][nShards] = len(col.Users)). The parallel scoring
// engine always scores on the fixed ShardUsers grid, so resolving a shard's
// [start, end) nonzero window becomes two table reads instead of a binary
// search per call plus a `user < hi` re-check per iteration — the offsets are
// computed once per (column, shard grid) at Scorer construction and reused
// across every round of every solve on that scorer.

// newShardOffsets builds the shard-offset table of a sparse instance (nil for
// a dense one), one O(nnz + shards) merge walk per candidate event column.
// During a warm scorer rebuild prev is the previous scorer's table and dirty
// the candidate events the mutation touched: clean columns share prev's
// offsets, which are a pure function of the column's unchanged user list.
func newShardOffsets(inst *Instance, prev [][]int, dirty []int) [][]int {
	if inst.sparse == nil {
		return nil
	}
	off := make([][]int, inst.NumEvents())
	var isDirty []bool
	if len(prev) == len(off) {
		isDirty = markSet(dirty, len(off))
	}
	for e := range off {
		if isDirty != nil && !isDirty[e] {
			off[e] = prev[e]
			continue
		}
		off[e] = buildShardOffsets(inst.sparse[e], inst.numUsers)
	}
	return off
}

// buildShardOffsets walks one column's ascending user list once, recording
// the first nonzero index at every ShardUsers boundary.
func buildShardOffsets(col SparseCol, numUsers int) []int {
	nShards := (numUsers + ShardUsers - 1) / ShardUsers
	off := make([]int, nShards+1)
	i := 0
	for j := 1; j <= nShards; j++ {
		bound := j * ShardUsers
		for i < len(col.Users) && int(col.Users[i]) < bound {
			i++
		}
		off[j] = i
	}
	return off
}

// rangeOffsets resolves the nonzero window [start, end) of column e covering
// users [lo, hi). Shard-grid-aligned bounds — the only ones the scoring
// engine produces — are table lookups; arbitrary bounds (single-shard tests,
// exotic callers) fall back to binary search, so ScoreUsers accepts any
// range.
func (sc *Scorer) rangeOffsets(col SparseCol, e, lo, hi, numUsers int) (int, int) {
	off := sc.off[e]
	var start int
	switch {
	case lo <= 0:
		start = 0
	case lo%ShardUsers == 0 && lo/ShardUsers < len(off):
		start = off[lo/ShardUsers]
	default:
		start = sort.Search(len(col.Users), func(i int) bool { return int(col.Users[i]) >= lo })
	}
	var end int
	switch {
	case hi >= numUsers:
		end = len(col.Users)
	case hi%ShardUsers == 0 && hi/ShardUsers < len(off):
		end = off[hi/ShardUsers]
	default:
		end = start + sort.Search(len(col.Users)-start, func(i int) bool { return int(col.Users[start+i]) >= hi })
	}
	return start, end
}

// scoreSparseRange is scoreUserRange over a sparse interest column: it iterates
// only the column's nonzeros inside [lo, hi), in ascending user order. The
// result is bit-identical to the scalar dense loop because every µ = 0
// term there contributes exactly +0.0 to the accumulator:
//
//   - cases 1-2: m/(·+m+ε) is +0 for m = 0, and act·(+0) is +0;
//   - cases 3-4: a+m and the old denominator are exactly a and oldD when
//     m = 0, so the bracket is x−x = +0;
//
// and adding +0.0 to any float64 the accumulator can hold is an exact no-op
// (the accumulator is never −0.0: it starts at +0.0 and every skipped term
// is +0.0). Skipping zeros therefore changes nothing but the work done,
// which is what makes sparse and dense runs — and every worker count of the
// internal/score engine, whose fixed ShardUsers shards call this through
// ScoreUsers — report identical utilities and schedules.
func (sc *Scorer) scoreSparseRange(s *Schedule, e, t, lo, hi int) float64 {
	inst := sc.inst
	col := inst.sparse[e]
	start, end := sc.rangeOffsets(col, e, lo, hi, inst.numUsers)
	users := col.Users[start:end]
	mus := col.Mu[start:end]
	act := sc.scoreActivityCol(t)
	comp := sc.compSum[t]
	assigned := s.assignedInterestSum(t)

	gain := 0.0
	switch {
	case comp == nil && assigned == nil:
		for i, uu := range users {
			u := int(uu)
			m := float64(mus[i])
			gain += float64(act[u]) * m / (m + denomEps)
		}
	case assigned == nil:
		for i, uu := range users {
			u := int(uu)
			m := float64(mus[i])
			gain += float64(act[u]) * m / (comp[u] + m + denomEps)
		}
	case comp == nil:
		for i, uu := range users {
			u := int(uu)
			a := assigned[u]
			m := float64(mus[i])
			gain += float64(act[u]) * ((a+m)/(a+m+denomEps) - a/(a+denomEps))
		}
	default:
		for i, uu := range users {
			u := int(uu)
			a := assigned[u]
			m := float64(mus[i])
			oldD := comp[u] + a
			gain += float64(act[u]) * ((a+m)/(oldD+m+denomEps) - a/(oldD+denomEps))
		}
	}
	return gain
}

// sparseAddColInto accumulates a column's nonzeros: dst[u] += µ(u, h). The
// dense accumulator adds exact +0.0 for every zero cell, so skipping them
// is bit-identical.
func sparseAddColInto(inst *Instance, h int, dst []float64) {
	col := inst.sparse[h]
	for i, u := range col.Users {
		dst[u] += float64(col.Mu[i])
	}
}

// sparseSubColInto subtracts a column's nonzeros (UnassignLast's undo).
func sparseSubColInto(inst *Instance, h int, dst []float64) {
	col := inst.sparse[h]
	for i, u := range col.Users {
		dst[u] -= float64(col.Mu[i])
	}
}
