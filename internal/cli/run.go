package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/score"
	"repro/internal/seio"
	"repro/internal/sim"
)

// Sesrun schedules an SES instance read from JSON and reports the schedule,
// its expected attendance and the work performed. With -batch it turns into
// a jobs-API client: upload the instance to a running sesd, submit an
// asynchronous algorithm × k sweep, poll it and render the resulting grid.
func Sesrun(stdin io.Reader, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sesrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "-", "instance JSON file ('-' = stdin; with -batch, '' skips the upload)")
		algoName = fs.String("algo", "HOR-I", "algorithm: ALG|INC|HOR|HOR-I|TOP|RAND")
		k        = fs.Int("k", 10, "number of events to schedule")
		out      = fs.String("o", "", "write the schedule as JSON to this file")
		seed     = fs.Uint64("seed", 1, "seed for RAND and -simulate")
		simulate = fs.Int("simulate", 0, "cross-check Ω with this many Monte-Carlo trials")
		parallel = fs.Int("parallel", 0, "score with this many engine workers (0 = sequential, -1 = all cores; utilities are bit-identical)")
		quiet    = fs.Bool("q", false, "suppress the per-event table")

		batch    = fs.String("batch", "", "sesd base URL: submit an async sweep job instead of solving locally")
		instName = fs.String("instance", "sesrun", "server-side instance name (-batch)")
		algos    = fs.String("algos", "ALG,INC,HOR,HOR-I", "comma-separated sweep algorithms (-batch)")
		ks       = fs.String("ks", "", "comma-separated sweep k values (-batch; default: -k)")
		poll     = fs.Duration("poll", 150*time.Millisecond, "job poll interval (-batch)")
		timeout  = fs.Duration("timeout", 5*time.Minute, "overall sweep deadline (-batch)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *batch != "" {
		if *ks == "" {
			*ks = strconv.Itoa(*k)
		}
		kList, err := parseKs(*ks)
		if err != nil {
			return fail(stderr, "sesrun", err)
		}
		return batchSweep(stdin, batchOptions{
			BaseURL:  *batch,
			Instance: *instName,
			In:       *in,
			Algos:    parseList(*algos),
			Ks:       kList,
			Seed:     *seed,
			Poll:     *poll,
			Timeout:  *timeout,
		}, stdout, stderr)
	}
	var r io.Reader = stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return fail(stderr, "sesrun", err)
		}
		defer f.Close()
		r = f
	}
	inst, err := seio.ReadInstance(r)
	if err != nil {
		return fail(stderr, "sesrun", err)
	}
	if *parallel < 0 {
		*parallel = score.DefaultWorkers()
	}
	s, err := algo.NewWithOptions(*algoName, *seed, core.ScorerOptions{Workers: *parallel})
	if err != nil {
		return fail(stderr, "sesrun", err)
	}
	res, err := s.Schedule(inst, *k)
	if err != nil {
		return fail(stderr, "sesrun", err)
	}
	fmt.Fprintf(stdout, "%s scheduled %d/%d events in %v\n", s.Name(), res.Schedule.Len(), *k, res.Elapsed)
	fmt.Fprintf(stdout, "utility Ω = %.4f   score computations = %d (×%d users = %d)   assignments examined = %d\n",
		res.Utility, res.ScoreEvals, inst.NumUsers(), res.Computations(inst.NumUsers()), res.Examined)
	if !*quiet {
		_, attendance := core.NewScorer(inst).Evaluate(res.Schedule)
		for i, a := range res.Schedule.Assignments() {
			name := inst.Events[a.Event].Name
			if name == "" {
				name = fmt.Sprintf("e%d", a.Event)
			}
			at := inst.Intervals[a.Interval].Name
			if at == "" {
				at = fmt.Sprintf("t%d", a.Interval)
			}
			fmt.Fprintf(stdout, "  %-24s @ %-12s ω = %8.3f\n", name, at, attendance[i])
		}
	}
	if *simulate > 0 {
		analytic, simulated, relErr, err := sim.Compare(inst, res.Schedule, *simulate, *seed)
		if err != nil {
			return fail(stderr, "sesrun", err)
		}
		fmt.Fprintf(stdout, "simulation (%d trials): Ω analytic %.4f vs simulated %.4f (%.2f%% off)\n",
			*simulate, analytic, simulated, 100*relErr)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return fail(stderr, "sesrun", err)
		}
		defer f.Close()
		if err := seio.WriteSchedule(f, inst, res.Schedule); err != nil {
			return fail(stderr, "sesrun", err)
		}
	}
	return 0
}
