package core

import (
	"fmt"
	"slices"
	"sort"
)

// ScorerDelta names the parts of a Scorer's precompute that one instance
// mutation dirtied, at the granularity the precompute is stored: interest
// edits dirty candidate-event columns, competing edits (and newly announced
// competing events) dirty per-interval competing sums, activity edits dirty
// per-interval activity columns. It is the contract between the mutation
// path (which knows what changed) and NewScorerFromDelta / the scoring
// engine's warm rebuild (which know what each change invalidates).
//
// Completeness is the caller's obligation: an index missing from the delta
// makes the warm scorer silently reuse stale state. Indices may repeat and
// arrive unsorted; out-of-range indices are rejected (the warm build fails
// and the caller falls back to a cold one).
type ScorerDelta struct {
	// Events lists candidate events whose interest column changed. A
	// sparse scorer rebuilds these columns' shard offsets, and the
	// engine's prefix memo drops their entries.
	Events []int
	// CompIntervals lists intervals whose competing-interest sum changed:
	// a competing event in the interval had cells edited, or a new
	// competing event was announced there. compSum[t] is rebuilt for these.
	CompIntervals []int
	// ActIntervals lists intervals with changed activity cells; the
	// weighted activity columns (ScorerOptions.UserWeights) are rebuilt
	// for these.
	ActIntervals []int
}

// Empty reports whether the delta dirties nothing.
func (d ScorerDelta) Empty() bool {
	return len(d.Events) == 0 && len(d.CompIntervals) == 0 && len(d.ActIntervals) == 0
}

// Merge returns the union of two deltas (successive mutations compose by
// accumulating dirtiness). The result is normalized: sorted, deduplicated.
func (d ScorerDelta) Merge(o ScorerDelta) ScorerDelta {
	return ScorerDelta{
		Events:        mergeIndexSets(d.Events, o.Events),
		CompIntervals: mergeIndexSets(d.CompIntervals, o.CompIntervals),
		ActIntervals:  mergeIndexSets(d.ActIntervals, o.ActIntervals),
	}
}

// mergeIndexSets unions two index lists into a sorted, deduplicated copy.
func mergeIndexSets(a, b []int) []int {
	if len(a) == 0 && len(b) == 0 {
		return nil
	}
	out := make([]int, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Ints(out)
	w := 0
	for i, v := range out {
		if i > 0 && v == out[w-1] {
			continue
		}
		out[w] = v
		w++
	}
	return out[:w]
}

// validate rejects out-of-range indices against the instance's shape.
func (d ScorerDelta) validate(inst *Instance) error {
	for _, e := range d.Events {
		if e < 0 || e >= inst.NumEvents() {
			return fmt.Errorf("core: delta event %d out of range [0,%d)", e, inst.NumEvents())
		}
	}
	for _, t := range d.CompIntervals {
		if t < 0 || t >= inst.NumIntervals() {
			return fmt.Errorf("core: delta competing interval %d out of range [0,%d)", t, inst.NumIntervals())
		}
	}
	for _, t := range d.ActIntervals {
		if t < 0 || t >= inst.NumIntervals() {
			return fmt.Errorf("core: delta activity interval %d out of range [0,%d)", t, inst.NumIntervals())
		}
	}
	return nil
}

// markSet returns a membership bitmap over [0, n) for the given indices.
func markSet(idx []int, n int) []bool {
	m := make([]bool, n)
	for _, i := range idx {
		m[i] = true
	}
	return m
}

// NewScorerFromDelta builds a scorer for inst by reusing the clean parts of
// prev's precompute and rebuilding only what the delta dirtied. The result
// is BIT-IDENTICAL to NewScorerWithOptions(inst, opts) — shared slices are
// immutable after construction, and every rebuilt piece runs the exact cold
// construction loop over the same operands in the same order:
//
//   - clean intervals share prev's compSum[t] slice; dirty ones re-run
//     NewScorer's accumulation restricted to that interval, which adds the
//     interval's competing columns in the same ascending-index order the
//     cold build does.
//   - with UserWeights, clean intervals share prev's weighted-activity
//     column and dirty ones are recomputed cell by cell; each cell is a
//     single independent multiply, so per-column rebuild matches the cold
//     build.
//   - on a sparse instance, clean candidate events share prev's shard-offset
//     slices and dirty ones rebuild theirs from the new user list.
//
// prev must have been built for the previous snapshot of the same instance
// chain with the same options (same UserWeights/EventCost values); shape or
// option mismatches return an error and the caller should fall back to a
// cold build. Mutations never change |E|, |T| or |U| (AddCompeting grows
// |C|, which only dirties its interval's competing sum), so a shape
// mismatch means the delta does not describe prev→inst.
func NewScorerFromDelta(prev *Scorer, inst *Instance, opts ScorerOptions, d ScorerDelta) (*Scorer, error) {
	if prev == nil {
		return nil, fmt.Errorf("core: warm scorer build without a previous scorer")
	}
	if err := opts.validate(inst); err != nil {
		return nil, err
	}
	if err := d.validate(inst); err != nil {
		return nil, err
	}
	p := prev.inst
	if p.NumUsers() != inst.NumUsers() || p.NumIntervals() != inst.NumIntervals() || p.NumEvents() != inst.NumEvents() {
		return nil, fmt.Errorf("core: warm scorer shape mismatch: prev %d×%d×%d vs %d×%d×%d users×events×intervals",
			p.NumUsers(), p.NumEvents(), p.NumIntervals(), inst.NumUsers(), inst.NumEvents(), inst.NumIntervals())
	}
	if (prev.act != nil) != (opts.UserWeights != nil) {
		return nil, fmt.Errorf("core: warm scorer weight-option mismatch with previous scorer")
	}
	if len(p.Competing) > len(inst.Competing) {
		return nil, fmt.Errorf("core: warm scorer competing set shrank (%d -> %d)", len(p.Competing), len(inst.Competing))
	}

	sc := &Scorer{
		inst:    inst,
		compSum: make([][]float64, inst.NumIntervals()),
		cost:    opts.EventCost,
		off:     newShardOffsets(inst, prev.off, d.Events),
	}
	dirtyComp := markSet(d.CompIntervals, inst.NumIntervals())
	for t := range sc.compSum {
		if !dirtyComp[t] {
			// compSum slices are never written after construction, so
			// sharing is safe and exact.
			sc.compSum[t] = prev.compSum[t]
			continue
		}
		// Re-run the cold accumulation for this interval: competing
		// columns are added in ascending index order, exactly as the
		// NewScorer loop over inst.Competing visits them.
		var sum []float64
		base := len(inst.Events)
		for ci, c := range inst.Competing {
			if c.Interval != t {
				continue
			}
			if sum == nil {
				sum = make([]float64, inst.NumUsers())
			}
			inst.addInterestColInto(base+ci, sum)
		}
		sc.compSum[t] = sum
	}

	if opts.UserWeights != nil {
		sc.act = slices.Clone(prev.act)
		for _, t := range d.ActIntervals {
			sc.act[t] = weightedActivity(inst, t, opts.UserWeights)
		}
	}
	return sc, nil
}
