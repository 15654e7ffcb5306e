// Package cli implements the command-line tools (sesbench, sesgen, sesrun)
// as testable functions: each takes its argument list and I/O streams and
// returns a process exit code, so the full pipelines run in-process under
// `go test`. The cmd/ mains are one-line wrappers.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/exp"
	"repro/internal/score"
)

// Sesbench regenerates the paper's evaluation figures.
func Sesbench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sesbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "", "figure to regenerate: 5|6|7|8|9|10a|10b|competing|resources|variants|sparse|resolve|summary|stacking|all")
		scale    = fs.String("scale", "small", "workload scale: tiny|small|medium|paper")
		datasets = fs.String("datasets", "", "comma-separated dataset filter (Meetup,Concerts,Unf,Zip)")
		algos    = fs.String("algos", "", "comma-separated algorithm filter (ALG,INC,HOR,HOR-I,TOP,RAND)")
		metric   = fs.String("metric", "", "render a single metric (utility|computations|time|examined); default: the figure's metrics")
		csvPath  = fs.String("csv", "", "write raw result rows to this CSV file")
		jsonOut  = fs.Bool("json", false, "write raw results as JSON to stdout instead of tables/plots")
		seed     = fs.Uint64("seed", 1, "base random seed")
		plot     = fs.Bool("plot", true, "render ASCII plots alongside tables")
		verbose  = fs.Bool("v", false, "log every measurement as it completes")
		trials   = fs.Int("trials", 5, "trials per dataset for -fig summary / stacking")
		parallel = fs.Int("parallel", 0, "score with this many workers per measurement (0 = sequential, -1 = all cores; identical utilities/counters, lower wall time)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *fig == "" {
		fs.Usage()
		return 2
	}
	sc, err := exp.ScaleByName(*scale)
	if err != nil {
		return fail(stderr, "sesbench", err)
	}
	if *parallel < 0 {
		*parallel = score.DefaultWorkers()
	}
	o := exp.Options{Scale: sc, Seed: *seed, Workers: *parallel}
	if *datasets != "" {
		o.Datasets = strings.Split(*datasets, ",")
	}
	if *algos != "" {
		o.Algorithms = strings.Split(*algos, ",")
	}
	if *verbose {
		o.Log = stderr
	}

	switch *fig {
	case "stacking":
		pts, err := exp.StackingStudy(o, []float64{1, 0.5, 0.25, 0.1, 0.01, 0.001}, *trials)
		if err != nil {
			return fail(stderr, "sesbench", err)
		}
		if *jsonOut {
			return encodeJSON(stdout, stderr, struct {
				Points []exp.StackingPoint `json:"points"`
			}{pts})
		}
		fmt.Fprintln(stdout, "HOR vs ALG utility gap vs competing-interest scale (see EXPERIMENTS.md):")
		fmt.Fprintf(stdout, "%8s %10s %22s\n", "scale", "gap", "ALG stacked intervals")
		for _, p := range pts {
			fmt.Fprintf(stdout, "%8.3f %9.3f%% %22.2f\n", p.Scale, p.GapPct, p.StackedIntervals)
		}
		return 0
	case "summary":
		st, rows, err := exp.Summary(o, *trials)
		if err != nil {
			return fail(stderr, "sesbench", err)
		}
		if *jsonOut {
			if code := encodeJSON(stdout, stderr, struct {
				Summary exp.SummaryStats `json:"summary"`
			}{st}); code != 0 {
				return code
			}
			return writeCSV(stderr, *csvPath, rows)
		}
		runs := st.Runs
		if runs == 0 {
			runs = 1
		}
		fmt.Fprintf(stdout, "HOR vs ALG utility (Section 4.2.8): %d runs, identical in %d (%.0f%%)\n",
			st.Runs, st.ExactSame, 100*float64(st.ExactSame)/float64(runs))
		fmt.Fprintf(stdout, "  average gap over differing runs: %.4f%%   max gap: %.4f%%\n", st.AvgGapPct, st.MaxGapPct)
		fmt.Fprintf(stdout, "  mean Ω: ALG %.2f, HOR %.2f\n", st.AvgUtilALG, st.AvgUtilHOR)
		return writeCSV(stderr, *csvPath, rows)
	}

	ids := []string{*fig}
	if *fig == "all" {
		ids = exp.FigureIDs()
	}
	figures := exp.Figures()
	var all []exp.Row
	for _, id := range ids {
		run, ok := figures[id]
		if !ok {
			return fail(stderr, "sesbench", fmt.Errorf("unknown figure %q (have %v)", id, exp.FigureIDs()))
		}
		rows, err := run(o)
		if err != nil {
			return fail(stderr, "sesbench", err)
		}
		all = append(all, rows...)
		if *jsonOut {
			continue
		}
		if code := render(stdout, stderr, rows, id, *metric, *plot); code != 0 {
			return code
		}
	}
	if *jsonOut {
		if err := exp.WriteJSON(stdout, all); err != nil {
			return fail(stderr, "sesbench", err)
		}
		return writeCSV(stderr, *csvPath, all)
	}
	if s := exp.RenderSpeedups(all); s != "" {
		fmt.Fprint(stdout, s)
	}
	return writeCSV(stderr, *csvPath, all)
}

// figureMetrics lists the metrics each figure plots in the paper.
func figureMetrics(id string) []string {
	switch id {
	case "5":
		return []string{"utility", "computations", "time"}
	case "6", "7", "9", "competing", "resources", "variants":
		return []string{"utility", "time"}
	case "8", "8a", "8b", "10a", "sparse", "resolve":
		return []string{"time"}
	case "10b":
		return []string{"examined"}
	}
	return []string{"utility", "time"}
}

func render(stdout, stderr io.Writer, rows []exp.Row, id, metric string, plot bool) int {
	metrics := figureMetrics(id)
	if metric != "" {
		metrics = []string{metric}
	}
	for _, m := range metrics {
		tbl, err := exp.RenderTables(rows, m)
		if err != nil {
			return fail(stderr, "sesbench", err)
		}
		fmt.Fprint(stdout, tbl)
		if plot {
			p, err := exp.RenderPlots(rows, m)
			if err != nil {
				return fail(stderr, "sesbench", err)
			}
			fmt.Fprint(stdout, p)
		}
	}
	return 0
}

// encodeJSON writes v as indented JSON to stdout.
func encodeJSON(stdout, stderr io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		return fail(stderr, "sesbench", err)
	}
	return 0
}

func writeCSV(stderr io.Writer, path string, rows []exp.Row) int {
	if path == "" {
		return 0
	}
	f, err := os.Create(path)
	if err != nil {
		return fail(stderr, "sesbench", err)
	}
	defer f.Close()
	if err := exp.WriteCSV(f, rows); err != nil {
		return fail(stderr, "sesbench", err)
	}
	fmt.Fprintf(stderr, "wrote %d rows to %s\n", len(rows), path)
	return 0
}

func fail(stderr io.Writer, tool string, err error) int {
	fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	return 1
}
