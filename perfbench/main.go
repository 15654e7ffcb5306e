// Command perfbench is the repository's benchmark. It runs one workload from
// a seed, checks every output the system returns, and prints the metrics by
// name with their units; the last line of stdout is one JSON object:
//
//	bash perfbench/run.sh --workload solve-dense --seed 1 --seconds 15 --trace 0
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json; --trace 1 is
// the separate traced run that reports the per-layer metrics and writes the
// spans it recorded to a JSON file. README.md in this directory says why each
// workload was chosen and which end-to-end metric each layer metric moves.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/seio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// workloads maps each workload name to its runner.
var workloads = map[string]func(context.Context, *config) (*Result, error){
	"solve-dense":    runSolveDense,
	"serve-mixed":    runServeMixed,
	"resolve-sparse": runResolveSparse,
}

// instanceSeed is the dataset seed of every workload's instance. The
// instances are fixed and --seed draws what the clients do (the rotation
// order, the request stream, the mutated cells): an instance drawn from the
// seed changes in size from seed to seed (its competing events are drawn per
// interval), which would move the figures with the seed rather than with the
// code.
const instanceSeed = 2019

// config is one run's settings.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration
	traced   bool
	// out holds the sesd data directories while the run lasts and the span
	// file of a traced run.
	out   string
	sizes sizes
	// tamper, when set, is handed every output before it is checked; the
	// smoke test uses it to corrupt outputs and watch error_rate rise.
	tamper func(output any)
}

func (c *config) tamperWith(output any) {
	if c.tamper != nil {
		c.tamper(output)
	}
}

// sizes are the instance and traffic dimensions of the three workloads.
type sizes struct {
	setups int // set-ups per run; setup_s is their median
	// mixSetups is serve-mixed's set-up count: its sub-second set-up moves
	// with disk and host noise, and a cheap one affords a wider median.
	mixSetups int

	denseUsers int // solve-dense: Zip, |E| = 3k, |T| = 3k/2
	denseK     int
	// denseTracedRounds is the number of four-algorithm rotations the traced
	// phase runs, a fixed count so its work counts repeat exactly.
	denseTracedRounds int

	mixUsers int // serve-mixed: dense Unf, |E| = 3k, |T| = 3k/2
	mixK     int
	mixRate  float64 // requests per second offered
	// mixLagBound invalidates a run whose generator ran later than this at
	// the 99th percentile: the offered load was not the stated one.
	mixLagBound time.Duration

	sparseUsers     int // resolve-sparse: sparse Unf
	sparseEvents    int
	sparseIntervals int
	sparseDensity   float64
	sparseK         int
	// sparseTracedCycles is the fixed cycle count of the traced phase.
	sparseTracedCycles int
}

// fullSizes are the workload sizes BENCHMARK.json's figures are taken at.
var fullSizes = sizes{
	setups:             3,
	mixSetups:          7,
	denseUsers:         20000,
	denseK:             20,
	denseTracedRounds:  6,
	mixUsers:           5000,
	mixK:               10,
	mixRate:            300,
	mixLagBound:        25 * time.Millisecond,
	sparseUsers:        200000,
	sparseEvents:       500,
	sparseIntervals:    10,
	sparseDensity:      0.05,
	sparseK:            20,
	sparseTracedCycles: 8,
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
		seed     = fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fs.Float64("seconds", 10, "seconds to measure")
		trace    = fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
		out      = fs.String("out", ".bench_build/perfbench-run", "directory for sesd data and span files")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(names, ", "))
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		measure:  time.Duration(*seconds * float64(time.Second)),
		traced:   *trace == 1,
		out:      *out,
		sizes:    fullSizes,
	}
	res, err := runner(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *workload, err)
		return 1
	}
	if cfg.traced {
		path, err := res.WriteSpans(cfg.out)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	if err := res.Print(stdout); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// setupRuns runs setup n times, tearing down every set-up but the last, and
// returns the last set-up's state with the median set-up time.
// Memory is returned to the OS between set-ups, and after the last one the
// resident-set high-water mark is reset, so peak_rss_mb measures the
// measured phase rather than the one-off spikes of decoding the instance.
func setupRuns[S any](n int, setup func() (S, error), teardown func(S)) (S, float64, error) {
	var (
		state S
		times []float64
	)
	n = max(n, 1)
	for i := 0; i < n; i++ {
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		s, err := setup()
		if err != nil {
			return state, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			teardown(s)
		} else {
			state = s
		}
	}
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM to the current resident set.
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		teardown(state)
		return state, 0, fmt.Errorf("reset peak RSS: %w", err)
	}
	return state, median(times), nil
}

// memSample is a point-in-time reading of the Go runtime's allocation
// counters.
type memSample struct{ alloc, gcs uint64 }

func readMem() memSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSample{alloc: m.TotalAlloc, gcs: uint64(m.NumGC)}
}

// setRuntime records the allocation per operation and GC cycles between two
// samples.
func setRuntime(ls *metricSet, before, after memSample, ops int) {
	ls.set("runtime.alloc_bytes_per_op", ratio(float64(after.alloc-before.alloc), float64(ops)))
	ls.set("runtime.gc_cycles", float64(after.gcs-before.gcs))
}

// setOverhead records how much slower the traced phase's median was than the
// untraced phase's, in percent.
func setOverhead(ls *metricSet, untracedP50, tracedP50 float64) {
	ls.set("trace.overhead_pct", 100*ratio(tracedP50-untracedP50, untracedP50))
}

// timeMedian runs fn n times and returns the median wall time in ms, or
// fn's first error.
func timeMedian(n int, fn func() error) (float64, error) {
	var ts []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts), nil
}

// setInstanceLayers records the per-layer costs the benchmark measures by
// calling dataset, seio and core itself on the workload's instance: set-up's
// generate time, and the median of three decodes of the instance document,
// scorer builds, digests and passes of the Eq. 4 kernel.
func setInstanceLayers(ls *metricSet, inst *core.Instance, genMS []float64) error {
	ls.set("dataset.generate_ms", median(genMS))
	var buf bytes.Buffer
	if err := seio.WriteInstance(&buf, inst); err != nil {
		return err
	}
	doc := buf.Bytes()
	for _, m := range []struct {
		name string
		fn   func() error
	}{
		{"seio.decode_ms", func() error {
			_, err := seio.ReadInstance(bytes.NewReader(doc))
			return err
		}},
		{"core.scorer_build_ms", func() error {
			_, err := core.NewScorerWithOptions(inst, core.ScorerOptions{})
			return err
		}},
		{"core.digest_ms", func() error {
			_ = inst.Digest()
			return nil
		}},
	} {
		v, err := timeMedian(3, m.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		}
		ls.set(m.name, v)
	}
	ns, err := kernelNSPerTerm(inst)
	if err != nil {
		return err
	}
	ls.set("core.kernel_ns_per_term", ns)
	return nil
}

// kernelNSPerTerm times one sequential pass of the Eq. 4 kernel over every
// candidate assignment against an empty schedule, through core.Scorer.Score,
// and divides the median of three passes by the terms a pass sums: |U| per
// evaluation on a dense instance, the event column's nonzeros on a sparse
// one.
func kernelNSPerTerm(inst *core.Instance) (float64, error) {
	sc, err := core.NewScorerWithOptions(inst, core.ScorerOptions{})
	if err != nil {
		return 0, err
	}
	empty := core.NewSchedule(inst)
	terms := 0
	for e := 0; e < inst.NumEvents(); e++ {
		terms += inst.ColNonzeros(e) * inst.NumIntervals()
	}
	sum := 0.0
	pass, _ := timeMedian(3, func() error {
		for e := 0; e < inst.NumEvents(); e++ {
			for t := 0; t < inst.NumIntervals(); t++ {
				sum += sc.Score(empty, e, t)
			}
		}
		return nil
	})
	if math.IsNaN(sum) {
		return 0, fmt.Errorf("kernel pass summed to NaN")
	}
	return ratio(pass*1e6, float64(terms)), nil
}
