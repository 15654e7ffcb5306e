package algo

import (
	"context"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/score"
)

// INC is the Incremental Updating algorithm (Section 3.2, Algorithm 1).
//
// INC makes the same greedy selections as ALG (Proposition 3) but avoids
// most of ALG's score recomputations with two schemes:
//
//   - Incremental updating: stale scores are upper bounds (Proposition 1),
//     so before a selection only the stale assignments whose stored score
//     reaches the bound Φ — the score of the top updated valid assignment —
//     need recomputing (Corollary 1). Stale assignments are processed in
//     globally descending stored-score order, so Φ grows as fast as
//     possible and the minimal set is updated (Example 3 updates one
//     assignment where ALG recomputes four).
//
//   - Interval-based assignment organization: one sorted list L_t per
//     interval plus the per-interval top M_t lets selection, bound
//     maintenance and update targeting touch only list prefixes instead of
//     the full assignment set (the Figure 10b search-space reduction).
type INC struct {
	// Opts enables the Section 2.1 problem extensions.
	Opts core.ScorerOptions
	// Engine, when set, is the shared scoring engine to use; otherwise a
	// private engine is built from Opts for the run.
	Engine *score.Engine
}

// Name implements Scheduler.
func (INC) Name() string { return "INC" }

// incList is the assignment list L_t of one interval.
type incList struct {
	items []item // sorted descending by stored score (event index tie-break)
	// dirty marks a partially updated list: at least one item may be
	// stale. Clean lists are skipped entirely during update passes.
	dirty bool
}

// top is an entry of the M list: the top updated valid assignment per
// interval.
type top struct {
	e     int32
	score float64
	ok    bool
}

type incState struct {
	inst  *core.Instance
	en    *score.Engine
	s     *core.Schedule
	lists []incList
	m     []top
	g     *guard
	c     Counters
}

// Schedule implements Scheduler.
func (a INC) Schedule(inst *core.Instance, k int) (*Result, error) {
	return a.ScheduleCtx(context.Background(), inst, k)
}

// ScheduleCtx implements Scheduler.
func (a INC) ScheduleCtx(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	g := newGuard(ctx, k)
	if err := g.point(); err != nil {
		return nil, err
	}
	start := time.Now()
	en, release, err := engineFor(a.Engine, inst, a.Opts)
	if err != nil {
		return nil, err
	}
	defer release()
	st := &incState{
		inst:  inst,
		en:    en,
		s:     en.NewSchedule(),
		lists: make([]incList, inst.NumIntervals()),
		m:     make([]top, inst.NumIntervals()),
		g:     g,
	}

	// Generate all assignments, score them against the empty schedule in one
	// batch fan-out and organize them into per-interval sorted lists
	// (Algorithm 1, lines 2-5). Candidates are collected interval-major so
	// the per-interval slices of the frontier stay contiguous.
	nE, nT := inst.NumEvents(), inst.NumIntervals()
	cands := make([]score.Candidate, 0, nE*nT)
	starts := make([]int, nT+1)
	for t := 0; t < nT; t++ {
		starts[t] = len(cands)
		for e := 0; e < nE; e++ {
			if !st.s.Feasible(e, t) {
				continue // ξ_e > θ: never schedulable
			}
			cands = append(cands, score.Candidate{Event: e, Interval: t})
		}
	}
	starts[nT] = len(cands)
	vals := make([]float64, len(cands))
	if err := en.ScoreBatch(g.ctx, st.s, cands, vals); err != nil {
		return nil, err
	}
	st.c.ScoreEvals += int64(len(cands))
	if err := g.batch(len(cands)); err != nil {
		return nil, err
	}
	for t := 0; t < nT; t++ {
		items := make([]item, 0, starts[t+1]-starts[t])
		for i := starts[t]; i < starts[t+1]; i++ {
			items = append(items, item{e: int32(cands[i].Event), score: vals[i], updated: true})
		}
		sortItems(items)
		st.lists[t] = incList{items: items}
		if len(items) > 0 {
			st.m[t] = top{e: items[0].e, score: items[0].score, ok: true}
		}
	}

	for st.s.Len() < k {
		if err := g.point(); err != nil {
			return nil, err
		}
		// If every M entry is gone (e.g. |T| = 1 right after a
		// selection), bootstrap Φ by updating stale assignments first.
		if !st.anyTop() {
			if err := st.updatePass(); err != nil {
				return nil, err
			}
		}
		tp := st.selectTop()
		if tp < 0 {
			break // no valid assignment remains anywhere
		}
		ep := st.m[tp].e
		if err := st.s.Assign(int(ep), tp); err != nil {
			return nil, err
		}
		if err := g.selected(st.s.Len()); err != nil {
			return nil, err
		}
		if st.s.Len() >= k {
			break // no selection follows, so no bookkeeping is needed
		}
		// The selected interval's denominators changed: every assignment
		// in L_tp is now stale (Algorithm 1, lines 9-10).
		lt := &st.lists[tp]
		for i := range lt.items {
			lt.items[i].updated = false
		}
		lt.dirty = true
		st.m[tp] = top{}
		// Event ep is gone everywhere: M entries referencing it must be
		// replaced by their list's next top updated valid assignment
		// (Algorithm 1, lines 11-15).
		for t := 0; t < nT; t++ {
			if t != tp && st.m[t].ok && st.m[t].e == ep {
				st.m[t] = st.rescanTop(t)
			}
		}
		if err := st.updatePass(); err != nil {
			return nil, err
		}
	}
	return finish(ctx, st.en, st.s, st.c, start), nil
}

// anyTop reports whether any M entry is populated.
func (st *incState) anyTop() bool {
	for _, m := range st.m {
		if m.ok {
			return true
		}
	}
	return false
}

// selectTop returns the interval whose M entry is the global top assignment
// under the deterministic tie-break, or -1 if M is empty.
func (st *incState) selectTop() int {
	best := -1
	for t, m := range st.m {
		if !m.ok {
			continue
		}
		if best < 0 || betterFull(m.score, m.e, t, st.m[best].score, st.m[best].e, best) {
			best = t
		}
	}
	return best
}

// rescanTop scans list t for its top updated valid assignment, pruning
// invalid entries on the way. This is the getTopAssgn(L_i) of Algorithm 1
// line 15 and costs a full list traversal (the (|T|−1)(|E|−i) term of the
// complexity analysis).
func (st *incState) rescanTop(t int) top {
	lt := &st.lists[t]
	out := lt.items[:0]
	var best top
	for _, it := range lt.items {
		st.c.Examined++
		if !st.s.Valid(int(it.e), t) {
			continue // prune: event assigned or interval constraint hit
		}
		out = append(out, it)
		if it.updated && (!best.ok || betterScoreEvent(it.score, it.e, best.score, best.e)) {
			best = top{e: it.e, score: it.score, ok: true}
		}
	}
	lt.items = out
	return best
}

// staleTop returns the position and stored score of list t's first stale
// valid item, pruning invalid entries encountered on the way. ok is false if
// the list holds no stale valid item (it is then marked clean).
func (st *incState) staleTop(t int) (pos int, score float64, ok bool) {
	lt := &st.lists[t]
	i := 0
	for i < len(lt.items) {
		it := lt.items[i]
		st.c.Examined++
		if !st.s.Valid(int(it.e), t) {
			lt.items = append(lt.items[:i], lt.items[i+1:]...)
			continue
		}
		if !it.updated {
			return i, it.score, true
		}
		i++
	}
	lt.dirty = false
	return 0, 0, false
}

// updatePass performs the incremental updating scheme before a selection:
// repeatedly recompute the globally highest-stored stale assignment while
// its stored score reaches the bound Φ (the top of M). Stored scores are
// upper bounds, so once the best stale stored score drops below Φ no stale
// assignment can be the next selection (Proposition 1) and the pass stops.
// The pass polls the run's context between recomputations.
func (st *incState) updatePass() error {
	phi := math.Inf(-1)
	phiE := int32(-1)
	for _, m := range st.m {
		if m.ok && (phiE < 0 || betterScoreEvent(m.score, m.e, phi, phiE)) {
			phi, phiE = m.score, m.e
		}
	}
	// Cache each dirty list's stale top for this pass; a cache entry is
	// refreshed only when its list changes.
	type cacheEntry struct {
		pos   int
		score float64
		ok    bool
		valid bool
	}
	cache := make([]cacheEntry, len(st.lists))
	for {
		bestT := -1
		var bestPos int
		var bestScore float64
		var bestE int32
		for t := range st.lists {
			if !st.lists[t].dirty {
				continue
			}
			if !cache[t].valid {
				pos, sc, ok := st.staleTop(t)
				cache[t] = cacheEntry{pos: pos, score: sc, ok: ok, valid: true}
			}
			ce := cache[t]
			if !ce.ok {
				continue
			}
			e := st.lists[t].items[ce.pos].e
			if bestT < 0 || betterFull(ce.score, e, t, bestScore, bestE, bestT) {
				bestT, bestPos, bestScore, bestE = t, ce.pos, ce.score, e
			}
		}
		if bestT < 0 {
			return nil // nothing stale anywhere
		}
		if !math.IsInf(phi, -1) && bestScore < phi {
			return nil // Corollary 1: all remaining stale scores are below Φ
		}
		// Recompute the stale top and re-insert it in sorted position
		// (scores only decrease, so it moves toward the tail). Each
		// recomputation's target depends on the previous result (via Φ and
		// the list order), so this pass uses the engine's single-evaluation
		// path, which shards the user pass itself on large instances.
		lt := &st.lists[bestT]
		it := lt.items[bestPos]
		it.score = st.en.Score(st.s, int(it.e), bestT)
		it.updated = true
		st.c.ScoreEvals++
		if err := st.g.step(); err != nil {
			return err
		}
		lt.items = append(lt.items[:bestPos], lt.items[bestPos+1:]...)
		ins := sort.Search(len(lt.items), func(i int) bool {
			return !betterScoreEvent(lt.items[i].score, lt.items[i].e, it.score, it.e)
		})
		lt.items = append(lt.items, item{})
		copy(lt.items[ins+1:], lt.items[ins:])
		lt.items[ins] = it
		cache[bestT].valid = false
		// Fold the fresh exact score into M and Φ.
		if !st.m[bestT].ok || betterScoreEvent(it.score, it.e, st.m[bestT].score, st.m[bestT].e) {
			st.m[bestT] = top{e: it.e, score: it.score, ok: true}
		}
		if phiE < 0 || betterScoreEvent(it.score, it.e, phi, phiE) {
			phi, phiE = it.score, it.e
		}
	}
}
