package algo

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/score"
)

// Extend grows an existing feasible schedule by up to extra greedy
// selections, without disturbing the assignments already made. It is the
// re-planning workflow of a real organizer — "we found budget for three more
// events" — and the building block the incremental event-planning variants
// cited by the paper ([6] Cheng et al., ICDE 2017) study.
//
// Extend runs ALG's own select/update loop from the base schedule, so
// Extend(inst, empty, k) is exactly ALG's run — schedule, ScoreEvals and
// Examined — which the tests assert. The base schedule is not modified; the returned Result holds an
// extended copy.
func Extend(inst *core.Instance, base *core.Schedule, extra int, opts core.ScorerOptions) (*Result, error) {
	return ExtendCtx(context.Background(), inst, base, extra, opts)
}

// ExtendCtx is Extend with the same cooperative cancellation and progress
// contract as Scheduler.ScheduleCtx.
func ExtendCtx(ctx context.Context, inst *core.Instance, base *core.Schedule, extra int, opts core.ScorerOptions) (*Result, error) {
	if err := checkExtend(inst, base, extra); err != nil {
		return nil, err
	}
	en, err := score.New(inst, opts)
	if err != nil {
		return nil, err
	}
	defer en.Close()
	return greedy(ctx, en, base.Clone(), base.Len()+extra, time.Now())
}

// ExtendWithEngine is ExtendCtx against a shared scoring engine (which pins
// the instance), the form sesd uses so extends of one instance version reuse
// the version's engine.
func ExtendWithEngine(ctx context.Context, en *score.Engine, base *core.Schedule, extra int) (*Result, error) {
	if err := checkExtend(en.Instance(), base, extra); err != nil {
		return nil, err
	}
	return greedy(ctx, en, base.Clone(), base.Len()+extra, time.Now())
}

func checkExtend(inst *core.Instance, base *core.Schedule, extra int) error {
	if extra <= 0 {
		return ErrBadK
	}
	if base == nil {
		return errors.New("algo: Extend needs a base schedule (use NewSchedule for an empty one)")
	}
	if base.Instance() != inst {
		return errors.New("algo: base schedule belongs to a different instance")
	}
	return nil
}
