package exp

import (
	"math"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/score"
)

// Fig5 regenerates Figure 5: the effect of the number of scheduled events k
// on utility (5a-d), computations (5e-h) and time (5i-l) over the four
// datasets. k sweeps {k/2, k, 2k, 5k} around the scaled default (paper:
// 50, 100, 200, 500); |E| tracks 3k so larger schedules stay feasible while
// |T| stays at the default 3k₀/2 (paper: 150), which is what makes HOR-I
// distinct from HOR at the two largest k values.
func Fig5(o Options) ([]Row, error) {
	k0 := o.Scale.K()
	ks := []int{k0 / 2, k0, 2 * k0, 5 * k0}
	intervals := 3 * k0 / 2
	var rows []Row
	for _, ds := range fourDatasets {
		if !o.wantDataset(ds) {
			continue
		}
		users := o.Scale.Users(baseUsers(ds))
		for _, k := range ks {
			p := dataset.Params{
				K: k, NumUsers: users, Seed: o.Seed,
				NumEvents: 3 * k, NumIntervals: intervals,
			}
			r, err := runPoint("5", ds, "k", k, k, p, allAlgos, o)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r...)
		}
	}
	return rows, nil
}

// Fig6 regenerates Figure 6: the effect of the number of time intervals |T|
// on utility (6a-d) and time (6e-h). |T| sweeps {k/5, k/2, k, 3k/2, 2k, 3k}
// (paper: 20, 50, 100, 150, 200, 300 for k = 100) with |E| = 3k fixed.
func Fig6(o Options) ([]Row, error) {
	k := o.Scale.K()
	ts := []int{k / 5, k / 2, k, 3 * k / 2, 2 * k, 3 * k}
	var rows []Row
	for _, ds := range fourDatasets {
		if !o.wantDataset(ds) {
			continue
		}
		users := o.Scale.Users(baseUsers(ds))
		for _, t := range ts {
			if t < 1 {
				t = 1
			}
			p := dataset.Params{
				K: k, NumUsers: users, Seed: o.Seed,
				NumEvents: 3 * k, NumIntervals: t,
			}
			r, err := runPoint("6", ds, "|T|", t, k, p, allAlgos, o)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r...)
		}
	}
	return rows, nil
}

// Fig7 regenerates Figure 7: the effect of the number of candidate events
// |E| on utility (7a-b) and time (7c-d) for Concerts and Unf. |E| sweeps
// {k, 3k, 5k, 10k} (paper: 100, 300, 500, 1000) with |T| = 3k/2, where
// k < |T| makes HOR-I identical to HOR (it is therefore omitted, as in the
// paper).
func Fig7(o Options) ([]Row, error) {
	k := o.Scale.K()
	es := []int{k, 3 * k, 5 * k, 10 * k}
	var rows []Row
	for _, ds := range []string{"Concerts", "Unf"} {
		if !o.wantDataset(ds) {
			continue
		}
		users := o.Scale.Users(baseUsers(ds))
		for _, e := range es {
			p := dataset.Params{
				K: k, NumUsers: users, Seed: o.Seed,
				NumEvents: e, NumIntervals: 3 * k / 2,
			}
			r, err := runPoint("7", ds, "|E|", e, k, p, allAlgos, o)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r...)
		}
	}
	return rows, nil
}

// Fig8 regenerates Figure 8: the effect of the number of users on time for
// the Unf dataset, in two settings — 8a at the default |T| = 3k/2 (HOR-I
// undefined) and 8b at |T| = 0.65k (paper: 65), the average case for the
// horizontal methods. |U| sweeps {1×, 5×, 10×} of the scaled synthetic base
// (paper: 100K, 500K, 1M).
func Fig8(o Options) ([]Row, error) {
	k := o.Scale.K()
	baseU := o.Scale.Users(baseUsers("Unf"))
	uss := []int{baseU, 5 * baseU, 10 * baseU}
	settings := []struct {
		fig       string
		intervals int
	}{
		{"8a", 3 * k / 2},
		{"8b", 65 * k / 100},
	}
	var rows []Row
	if !o.wantDataset("Unf") {
		return rows, nil
	}
	for _, set := range settings {
		iv := set.intervals
		if iv < 1 {
			iv = 1
		}
		for _, u := range uss {
			p := dataset.Params{
				K: k, NumUsers: u, Seed: o.Seed,
				NumEvents: 3 * k, NumIntervals: iv,
			}
			r, err := runPoint(set.fig, "Unf", "|U|", u, k, p, allAlgos, o)
			if err != nil {
				return nil, err
			}
			rows = append(rows, r...)
		}
	}
	return rows, nil
}

// Fig9 regenerates Figure 9: the effect of the number of available locations
// on utility (9a) and time (9b) for Unf at |T| = 0.65k (paper: 65).
// Locations sweep the paper's absolute values {5, 10, 25, 50, 70}.
func Fig9(o Options) ([]Row, error) {
	k := o.Scale.K()
	locs := []int{5, 10, 25, 50, 70}
	iv := 65 * k / 100
	if iv < 1 {
		iv = 1
	}
	var rows []Row
	if !o.wantDataset("Unf") {
		return rows, nil
	}
	users := o.Scale.Users(baseUsers("Unf"))
	for _, l := range locs {
		p := dataset.Params{
			K: k, NumUsers: users, Seed: o.Seed,
			NumEvents: 3 * k, NumIntervals: iv, NumLocations: l,
		}
		r, err := runPoint("9", "Unf", "locations", l, k, p, allAlgos, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Fig10a regenerates Figure 10a: execution time in the HOR/HOR-I worst case
// w.r.t. k and |T| (Propositions 5 and 7): |T| = k − 1, so k mod |T| = 1 and
// the final layer computes a full layer of scores to select one assignment.
// All four datasets run at the default sizes.
func Fig10a(o Options) ([]Row, error) {
	k := o.Scale.K()
	iv := k - 1
	if iv < 1 {
		iv = 1
	}
	var rows []Row
	for i, ds := range fourDatasets {
		if !o.wantDataset(ds) {
			continue
		}
		p := dataset.Params{
			K: k, NumUsers: o.Scale.Users(baseUsers(ds)), Seed: o.Seed,
			NumEvents: 3 * k, NumIntervals: iv,
		}
		r, err := runPoint("10a", ds, "dataset", i, k, p, []string{"ALG", "INC", "HOR", "HOR-I", "TOP"}, o)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r...)
	}
	return rows, nil
}

// Fig10b regenerates Figure 10b: the number of assignments examined by ALG
// vs INC (the search-space effect of the assignment organization,
// Section 3.2.2), varying k ∈ {k/2, k, 2k}, |T| ∈ {k, 2k, 3k} and
// |E| ∈ {k, 5k, 10k} around the defaults (paper: k 50/100/200,
// |T| 100/200/300, |E| 100/500/1000) on Unf.
func Fig10b(o Options) ([]Row, error) {
	k0 := o.Scale.K()
	if !o.wantDataset("Unf") {
		return nil, nil
	}
	users := o.Scale.Users(baseUsers("Unf"))
	var rows []Row
	add := func(xname string, x, k, events, intervals int) error {
		p := dataset.Params{
			K: k, NumUsers: users, Seed: o.Seed,
			NumEvents: events, NumIntervals: intervals,
		}
		r, err := runPoint("10b", "Unf", xname, x, k, p, []string{"ALG", "INC"}, o)
		rows = append(rows, r...)
		return err
	}
	for _, k := range []int{k0 / 2, k0, 2 * k0} {
		if err := add("k", k, k, 3*k0, 3*k0/2); err != nil {
			return nil, err
		}
	}
	for _, t := range []int{k0, 2 * k0, 3 * k0} {
		if err := add("|T|", t, k0, 3*k0, t); err != nil {
			return nil, err
		}
	}
	for _, e := range []int{k0, 5 * k0, 10 * k0} {
		if err := add("|E|", e, k0, e, 3*k0/2); err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// SummaryStats is the HOR-vs-ALG solution-quality statistic of
// Section 4.2.8(2): how often HOR's utility equals ALG's exactly, and the
// average / maximum relative gap otherwise.
type SummaryStats struct {
	Runs       int
	ExactSame  int
	AvgGapPct  float64 // over the differing runs
	MaxGapPct  float64
	AvgUtilALG float64
	AvgUtilHOR float64
}

// Summary reproduces the match-rate study over trials randomized instances
// per dataset at the default parameters (paper: same utility in >70% of
// experiments; average gap 0.008%, max 1.3%).
func Summary(o Options, trials int) (SummaryStats, []Row, error) {
	k := o.Scale.K()
	var st SummaryStats
	var rows []Row
	var gapSum float64
	gaps := 0
	for _, ds := range fourDatasets {
		if !o.wantDataset(ds) {
			continue
		}
		users := o.Scale.Users(baseUsers(ds))
		for i := 0; i < trials; i++ {
			p := dataset.Params{K: k, NumUsers: users, Seed: o.Seed + uint64(1000*i)}
			inst, err := dataset.ByName(ds, p)
			if err != nil {
				return st, nil, err
			}
			en, err := score.New(inst, core.ScorerOptions{Workers: o.Workers})
			if err != nil {
				return st, nil, err
			}
			ra, err := algo.ALG{Engine: en}.Schedule(inst, k)
			if err != nil {
				en.Close()
				return st, nil, err
			}
			rh, err := algo.HOR{Engine: en}.Schedule(inst, k)
			en.Close()
			if err != nil {
				return st, nil, err
			}
			st.Runs++
			st.AvgUtilALG += ra.Utility
			st.AvgUtilHOR += rh.Utility
			gap := 0.0
			if ra.Utility > 0 {
				gap = math.Abs(ra.Utility-rh.Utility) / ra.Utility * 100
			}
			if gap < 1e-9 {
				st.ExactSame++
			} else {
				gapSum += gap
				gaps++
				if gap > st.MaxGapPct {
					st.MaxGapPct = gap
				}
			}
			rows = append(rows,
				Row{Figure: "summary", Dataset: ds, Algorithm: "ALG", XName: "trial", X: i, K: k,
					Users: users, Utility: ra.Utility, ScoreEvals: ra.ScoreEvals,
					Computations: ra.Computations(users), Examined: ra.Examined, Elapsed: ra.Elapsed},
				Row{Figure: "summary", Dataset: ds, Algorithm: "HOR", XName: "trial", X: i, K: k,
					Users: users, Utility: rh.Utility, ScoreEvals: rh.ScoreEvals,
					Computations: rh.Computations(users), Examined: rh.Examined, Elapsed: rh.Elapsed})
			o.logf("summary %-8s trial %d: ALG Ω=%.2f HOR Ω=%.2f gap=%.4f%%", ds, i, ra.Utility, rh.Utility, gap)
		}
	}
	if st.Runs > 0 {
		st.AvgUtilALG /= float64(st.Runs)
		st.AvgUtilHOR /= float64(st.Runs)
	}
	if gaps > 0 {
		st.AvgGapPct = gapSum / float64(gaps)
	}
	return st, rows, nil
}

// Figures maps figure ids to their runners, for the CLI.
func Figures() map[string]func(Options) ([]Row, error) {
	return map[string]func(Options) ([]Row, error){
		"5":         Fig5,
		"6":         Fig6,
		"7":         Fig7,
		"8":         Fig8,
		"9":         Fig9,
		"10a":       Fig10a,
		"10b":       Fig10b,
		"competing": FigCompeting,
		"resources": FigResources,
		"variants":  FigVariants,
		"sparse":    FigSparse,
		"resolve":   FigResolve,
	}
}

// FigureIDs lists the runnable figures in paper order; the last three are
// the experiments the paper ran but omitted from the plots (Section 4.1).
func FigureIDs() []string {
	return []string{"5", "6", "7", "8", "9", "10a", "10b", "competing", "resources", "variants", "sparse", "resolve"}
}
