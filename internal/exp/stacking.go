package exp

import (
	"math"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/score"
)

// StackingPoint is one measurement of the stacking study: the HOR-vs-ALG
// utility gap at a given competing-interest scale.
type StackingPoint struct {
	// Scale multiplies every competing-event interest.
	Scale float64
	// GapPct is 100·(Ω_ALG − Ω_HOR)/Ω_ALG averaged over the trials.
	GapPct float64
	// StackedIntervals is the average number of intervals ALG assigned
	// two or more events to.
	StackedIntervals float64
	Trials           int
}

// StackingStudy quantifies this reproduction's main deviation from the
// paper (EXPERIMENTS.md "Section 4.2.8(2)"): ALG profits from stacking
// multiple events into low-competition intervals — a gain proportional to
// the interval's competing-interest mass — while HOR's horizontal layers
// cannot stack when k ≤ |T|. Scaling the competing interests down must
// therefore (a) drive ALG's stacking to zero and (b) close the HOR-ALG
// utility gap; the study measures both on Unf at the default parameters.
func StackingStudy(o Options, scales []float64, trials int) ([]StackingPoint, error) {
	k := o.Scale.K()
	users := o.Scale.Users(baseUsers("Unf"))
	var out []StackingPoint
	for _, scale := range scales {
		pt := StackingPoint{Scale: scale, Trials: trials}
		for trial := 0; trial < trials; trial++ {
			p := dataset.Params{
				K: k, NumUsers: users, Seed: o.Seed + uint64(997*trial),
				CompetingInterestScale: scale,
			}
			inst, err := dataset.ByName("Unf", p)
			if err != nil {
				return nil, err
			}
			en, err := score.New(inst, core.ScorerOptions{Workers: o.Workers})
			if err != nil {
				return nil, err
			}
			ra, err := algo.ALG{Engine: en}.Schedule(inst, k)
			if err != nil {
				en.Close()
				return nil, err
			}
			rh, err := algo.HOR{Engine: en}.Schedule(inst, k)
			en.Close()
			if err != nil {
				return nil, err
			}
			if ra.Utility > 0 {
				pt.GapPct += 100 * math.Max(0, ra.Utility-rh.Utility) / ra.Utility
			}
			counts := map[int]int{}
			for _, a := range ra.Schedule.Assignments() {
				counts[a.Interval]++
			}
			for _, c := range counts {
				if c > 1 {
					pt.StackedIntervals++
				}
			}
			o.logf("stacking scale=%.3f trial=%d ALG=%.2f HOR=%.2f", scale, trial, ra.Utility, rh.Utility)
		}
		pt.GapPct /= float64(trials)
		pt.StackedIntervals /= float64(trials)
		out = append(out, pt)
	}
	return out, nil
}
