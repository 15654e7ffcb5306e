package algo

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/score"
)

// ALG is the greedy algorithm of Bikakis et al. (ICDE 2018), outlined in
// Section 3.1 of the paper, and the comparison baseline for INC/HOR/HOR-I.
//
// ALG first scores every (event, interval) pair, then repeats k times:
// scan all available assignments for the top valid one, select it, and
// recompute from scratch the scores of every assignment bound to the
// selected assignment's interval. Complexity (paper):
// O(|U||C| + |E||T||U| + k|E||T| + k|E||U| − k²|T| − k²|U|).
//
// Both scoring phases are independent candidate frontiers — the initial
// |E|×|T| grid and each selection's interval-column recompute — so each runs
// as one engine batch fan-out.
type ALG struct {
	// Opts enables the Section 2.1 problem extensions.
	Opts core.ScorerOptions
	// Engine, when set, is the shared scoring engine to use (its instance
	// must be the one scheduled); otherwise a private engine is built from
	// Opts for the run.
	Engine *score.Engine
}

// Name implements Scheduler.
func (ALG) Name() string { return "ALG" }

// Schedule implements Scheduler.
func (a ALG) Schedule(inst *core.Instance, k int) (*Result, error) {
	return a.ScheduleCtx(context.Background(), inst, k)
}

// ScheduleCtx implements Scheduler.
func (a ALG) ScheduleCtx(ctx context.Context, inst *core.Instance, k int) (*Result, error) {
	if k <= 0 {
		return nil, ErrBadK
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	en, release, err := engineFor(a.Engine, inst, a.Opts)
	if err != nil {
		return nil, err
	}
	defer release()
	return greedy(ctx, en, en.NewSchedule(), k, start)
}

// greedy runs ALG's select/update loop on s until it holds target
// assignments or no valid assignment remains, leaving s's existing
// assignments in place. ALG starts it from an empty schedule; Extend from a
// copy of its base. Progress reports selections made by this run out of
// target − s.Len().
func greedy(ctx context.Context, en *score.Engine, s *core.Schedule, target int, start time.Time) (*Result, error) {
	base := s.Len()
	g := newGuard(ctx, target-base)
	if err := g.point(); err != nil {
		return nil, err
	}
	var c Counters

	nE, nT := en.Instance().NumEvents(), en.Instance().NumIntervals()
	// Initial frontier: every interval of every still-unassigned event,
	// scored in one batch. With nothing assigned the candidate order is the
	// score matrix layout, so the batch writes the matrix directly.
	scores := make([]float64, nE*nT)
	cands := make([]score.Candidate, 0, nE*nT)
	for e := 0; e < nE; e++ {
		if _, assigned := s.AssignedInterval(e); assigned {
			continue
		}
		for t := 0; t < nT; t++ {
			cands = append(cands, score.Candidate{Event: e, Interval: t})
		}
	}
	vals := scores
	if len(cands) < len(scores) {
		vals = make([]float64, len(cands))
	}
	if err := en.ScoreBatch(g.ctx, s, cands, vals); err != nil {
		return nil, err
	}
	if len(cands) < len(scores) {
		for i, cd := range cands {
			scores[cd.Event*nT+cd.Interval] = vals[i]
		}
	}
	c.ScoreEvals += int64(len(cands))
	if err := g.batch(len(cands)); err != nil {
		return nil, err
	}

	updVals := make([]float64, nE)
	for s.Len() < target {
		if err := g.point(); err != nil {
			return nil, err
		}
		// Select: scan every available assignment for the top valid one.
		bestE, bestT := int32(-1), -1
		bestScore := 0.0
		for e := 0; e < nE; e++ {
			if _, assigned := s.AssignedInterval(e); assigned {
				continue
			}
			for t := 0; t < nT; t++ {
				c.Examined++
				if !s.Feasible(e, t) {
					continue
				}
				sv := scores[e*nT+t]
				if bestE < 0 || betterFull(sv, int32(e), t, bestScore, bestE, bestT) {
					bestE, bestT, bestScore = int32(e), t, sv
				}
			}
		}
		if bestE < 0 {
			break // no valid assignment remains
		}
		if err := s.Assign(int(bestE), bestT); err != nil {
			return nil, err
		}
		if err := g.selected(s.Len() - base); err != nil {
			return nil, err
		}
		if s.Len() >= target {
			break // no selection follows, so no update is needed
		}
		// Update: recompute every available assignment of the selected
		// interval against the new schedule state — one batch over the
		// interval column.
		upd := cands[:0]
		for e := 0; e < nE; e++ {
			if _, assigned := s.AssignedInterval(e); assigned {
				continue
			}
			c.Examined++
			if !s.Feasible(e, bestT) {
				continue
			}
			upd = append(upd, score.Candidate{Event: e, Interval: bestT})
		}
		if err := en.ScoreBatch(g.ctx, s, upd, updVals); err != nil {
			return nil, err
		}
		for i, cd := range upd {
			scores[cd.Event*nT+bestT] = updVals[i]
		}
		c.ScoreEvals += int64(len(upd))
		if err := g.batch(len(upd)); err != nil {
			return nil, err
		}
	}
	return finish(ctx, en, s, c, start), nil
}
