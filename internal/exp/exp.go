// Package exp is the experiment harness: it regenerates every figure of the
// paper's evaluation (Section 4) — utility, computation-count and wall-time
// sweeps over k, |T|, |E|, |U| and the number of locations, the HOR/HOR-I
// worst case, the ALG-vs-INC search-space comparison, and the HOR-vs-ALG
// utility match-rate summary.
//
// Every sweep is expressed relative to the (possibly scaled) default number
// of scheduled events k, exactly as Table 1 does (|E| defaults to 3k, |T| to
// 3k/2, the Figure 6 sweep is {k/5, k/2, k, 3k/2, 2k, 3k}, ...), so running
// at a reduced Scale preserves the paper's parameter ratios — and therefore
// the shape of every curve — while fitting in laptop minutes instead of the
// paper's multi-hour server runs.
package exp

import (
	"fmt"
	"io"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/score"
)

// Scale shrinks the paper's workload sizes while preserving ratios.
type Scale struct {
	// Name labels the scale in reports.
	Name string
	// KDiv divides the paper's k values (paper default k = 100).
	KDiv int
	// UserScale multiplies the paper's user counts (Meetup 42,444,
	// Concerts 379,391, synthetic 100K-1M).
	UserScale float64
}

// Predefined scales. Small is the default for interactive runs and the
// benchmark suite; Paper reproduces the exact published parameter values.
var (
	Small  = Scale{Name: "small", KDiv: 5, UserScale: 0.01}
	Medium = Scale{Name: "medium", KDiv: 2, UserScale: 0.05}
	Paper  = Scale{Name: "paper", KDiv: 1, UserScale: 1}
	// Tiny exists for tests: everything minimal but structurally intact.
	Tiny = Scale{Name: "tiny", KDiv: 20, UserScale: 0.002}
)

// ScaleByName resolves a scale label.
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "tiny":
		return Tiny, nil
	case "small":
		return Small, nil
	case "medium":
		return Medium, nil
	case "paper", "full":
		return Paper, nil
	}
	return Scale{}, fmt.Errorf("exp: unknown scale %q (tiny|small|medium|paper)", name)
}

// K returns the scaled default number of scheduled events (paper: 100).
func (s Scale) K() int {
	k := 100 / s.KDiv
	if k < 4 {
		k = 4
	}
	return k
}

// Users returns the scaled user count for a paper-scale base figure,
// with a floor that keeps the attendance model statistically meaningful.
func (s Scale) Users(base int) int {
	u := int(float64(base) * s.UserScale)
	if u < 40 {
		u = 40
	}
	return u
}

// baseUsers is each dataset's paper-scale user count.
func baseUsers(ds string) int {
	switch ds {
	case "Meetup":
		return 42444
	case "Concerts":
		return 379391
	default:
		return 100000 // synthetic default |U| (Table 1)
	}
}

// Options configures a harness run.
type Options struct {
	Scale Scale
	// Seed drives dataset generation. All points of one sweep share the
	// seed so the swept parameter is the only thing changing between them.
	Seed uint64
	// Datasets filters which datasets run (nil = the figure's own list).
	Datasets []string
	// Algorithms filters which algorithms run (nil = the figure's list).
	Algorithms []string
	// Workers > 1 runs every measurement with a parallel scoring engine of
	// that many workers (sesbench -parallel). Utilities and counters are
	// bit-identical to sequential runs; only wall time changes.
	Workers int
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

func (o Options) wantDataset(ds string) bool  { return contains(o.Datasets, ds) }
func (o Options) wantAlgorithm(a string) bool { return contains(o.Algorithms, a) }

func contains(filter []string, v string) bool {
	if len(filter) == 0 {
		return true
	}
	for _, f := range filter {
		if f == v {
			return true
		}
	}
	return false
}

// Row is one measurement: a (figure, dataset, algorithm, x) point with all
// three metrics the paper reports.
type Row struct {
	Figure    string  // "5", "6", ... "10a", "10b"
	Dataset   string  // Meetup / Concerts / Unf / Zip
	Algorithm string  // ALG / INC / HOR / HOR-I / TOP / RAND
	XName     string  // swept parameter: k, |T|, |E|, |U|, locations, dataset
	X         int     // swept value
	K         int     // scheduled events for this point
	Events    int     // |E|
	Intervals int     // |T|
	Users     int     // |U|
	Utility   float64 // Ω of the returned schedule
	// ScoreEvals and Examined are the raw counters; Computations is the
	// paper's metric ScoreEvals × |U|.
	ScoreEvals   int64
	Computations int64
	Examined     int64
	Elapsed      time.Duration
}

// runPoint builds the dataset at one sweep point and runs the requested
// algorithms on it.
func runPoint(fig, ds, xname string, x int, k int, p dataset.Params, algos []string, o Options) ([]Row, error) {
	inst, err := dataset.ByName(ds, p)
	if err != nil {
		return nil, fmt.Errorf("exp: fig %s %s %s=%d: %w", fig, ds, xname, x, err)
	}
	return runInstance(fig, ds, xname, x, k, inst, algos, o)
}

// runInstance runs the requested algorithms on a prebuilt instance. All
// algorithms of one measurement point share one scoring engine, so the
// O(|U|·|C|) precompute and the worker set are paid once per instance —
// the same amortization sesd gets from its per-version engines.
func runInstance(fig, ds, xname string, x int, k int, inst *core.Instance, algos []string, o Options) ([]Row, error) {
	en, err := score.New(inst, core.ScorerOptions{Workers: o.Workers})
	if err != nil {
		return nil, err
	}
	defer en.Close()
	var rows []Row
	for _, name := range algos {
		if !o.wantAlgorithm(name) {
			continue
		}
		// HOR-I is identical to HOR when k ≤ |T| (Section 3.4); the
		// paper omits it from those plots and so do we.
		if name == "HOR-I" && k <= inst.NumIntervals() {
			continue
		}
		s, err := algo.NewWithEngine(name, o.Seed+uint64(x), en)
		if err != nil {
			return nil, err
		}
		res, err := s.Schedule(inst, k)
		if err != nil {
			return nil, fmt.Errorf("exp: fig %s %s %s: %w", fig, ds, name, err)
		}
		rows = append(rows, Row{
			Figure:       fig,
			Dataset:      ds,
			Algorithm:    name,
			XName:        xname,
			X:            x,
			K:            k,
			Events:       inst.NumEvents(),
			Intervals:    inst.NumIntervals(),
			Users:        inst.NumUsers(),
			Utility:      res.Utility,
			ScoreEvals:   res.ScoreEvals,
			Computations: res.Computations(inst.NumUsers()),
			Examined:     res.Examined,
			Elapsed:      res.Elapsed,
		})
		o.logf("fig %-3s %-8s %-5s %5s=%-7d k=%-4d |E|=%-5d |T|=%-4d |U|=%-7d Ω=%.1f evals=%d %.0fms",
			fig, ds, name, xname, x, k, inst.NumEvents(), inst.NumIntervals(), inst.NumUsers(),
			res.Utility, res.ScoreEvals, float64(res.Elapsed.Microseconds())/1000)
	}
	return rows, nil
}

// allAlgos is the paper's full method list.
var allAlgos = []string{"ALG", "INC", "HOR", "HOR-I", "TOP", "RAND"}

// fourDatasets is the dataset list of Figures 5 and 6.
var fourDatasets = []string{"Meetup", "Concerts", "Unf", "Zip"}
