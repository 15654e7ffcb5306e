package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics/span"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Name  string
	Unit  string
	Value float64
}

// Property describes the workload a run measured (sizes, mix counts, hit
// shares), so a later change can cite what its numbers were taken on. Exact
// marks values that repeat bit for bit for a given seed.
type Property struct {
	Name  string
	Value string
	Exact bool
}

// Result is everything one run measured.
type Result struct {
	Workload string
	Seed     uint64
	Traced   bool

	// Attempted counts measured operations; Failed counts those that failed
	// or returned a wrong output. error_rate is Failed/Attempted.
	Attempted, Failed int
	// Invalid lists reasons the run's figures cannot be trusted even though
	// every output was right (generator lag past its bound, a trace evicted
	// before it was read).
	Invalid []string
	// Errors keeps the first few failures for the report.
	Errors []string

	// EndToEnd holds the metrics BENCHMARK.json gates (untraced runs).
	EndToEnd []Metric
	// Named holds the same figures under the workload's own names
	// (solve_ms.p50, read_ms.p99, ...) plus error_rate.
	Named []Metric
	// Layers holds the per-layer metrics (traced runs).
	Layers []Metric
	Props  []Property

	// ClientSpans are the spans the benchmark recorded around its own calls;
	// ServerSpans the sesd traces it fetched. Traced runs only.
	ClientSpans []span.TraceData
	ServerSpans []span.TraceData
}

// errorRate is Failed/Attempted.
func (r *Result) errorRate() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// maxErrors bounds the failures the report lists.
const maxErrors = 5

// fail counts one failed or wrong operation.
func (r *Result) fail(err error) {
	r.Failed++
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *Result) invalidf(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

func (r *Result) prop(name string, value any, exact bool) {
	r.Props = append(r.Props, Property{Name: name, Value: fmt.Sprint(value), Exact: exact})
}

// endToEnd lists the metrics every workload reports in an untraced run, in
// BENCHMARK.json order. latency_ms.* time the workload's unit of traffic as
// its client sees it; the tail is p90 on every workload (serve-mixed's p99,
// printed as request_ms.p99, moves with every host stall and is too unsteady
// to gate).
var endToEnd = []struct{ name, unit string }{
	{"latency_ms.p50", "ms"},
	{"latency_ms.tail", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// layerMetrics lists the per-layer metrics every traced run reports. A layer
// a workload does not reach reports 0. Durations are means per occurrence;
// counts are per measured operation unless the name says otherwise.
var layerMetrics = []struct{ name, unit string }{
	{"dataset.generate_ms", "ms"},
	{"seio.decode_ms", "ms"},
	{"core.scorer_build_ms", "ms"},
	{"core.kernel_ns_per_term", "ns"},
	{"core.digest_ms", "ms"},
	{"score.batch_ms", "ms"},
	{"score.evals", "count"},
	{"score.fanouts", "count"},
	{"score.grid_hits", "count"},
	{"score.grid_hit_ratio", "ratio"},
	{"algo.score_evals.ALG", "count"},
	{"algo.score_evals.INC", "count"},
	{"algo.score_evals.HOR", "count"},
	{"algo.score_evals.HOR-I", "count"},
	{"algo.examined.ALG", "count"},
	{"algo.examined.INC", "count"},
	{"algo.examined.HOR", "count"},
	{"algo.examined.HOR-I", "count"},
	{"algo.unbatched_ms", "ms"},
	{"server.queue_ms", "ms"},
	{"server.result_cache_hit_ratio", "ratio"},
	{"http.overhead_ms", "ms"},
	{"server.engine_acquire_ms.cold", "ms"},
	{"server.engine_acquire_ms.warm", "ms"},
	{"server.engine_warm_ratio", "ratio"},
	{"server.encode_ms", "ms"},
	{"server.mutate_ms", "ms"},
	{"persist.wal_append_ms", "ms"},
	{"persist.wal_bytes_per_append", "B"},
	{"persist.compactions", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cycles", "count"},
	{"gen_lag_ms.p99", "ms"},
	{"trace.overhead_pct", "%"},
}

// metricSet fills a fixed metric list by name, so every run emits every
// name of its list and nothing else.
type metricSet struct {
	units  map[string]string
	order  []string
	values map[string]float64
}

func newMetricSet(list []struct{ name, unit string }) *metricSet {
	ms := &metricSet{units: map[string]string{}, values: map[string]float64{}}
	for _, m := range list {
		ms.units[m.name] = m.unit
		ms.order = append(ms.order, m.name)
	}
	return ms
}

// set records a value; an unknown name is a bug in the benchmark.
func (ms *metricSet) set(name string, v float64) {
	if _, ok := ms.units[name]; !ok {
		panic("perfbench: unknown metric " + name)
	}
	ms.values[name] = v
}

func (ms *metricSet) list() []Metric {
	out := make([]Metric, 0, len(ms.order))
	for _, n := range ms.order {
		out = append(out, Metric{Name: n, Unit: ms.units[n], Value: ms.values[n]})
	}
	return out
}

// exactCounts names the per-layer counts that repeat exactly for a seed: the
// solvers are deterministic and the traced phase of the closed-loop
// workloads runs a fixed number of operations.
var exactCounts = map[string]map[string]bool{
	"solve-dense": {
		"score.evals": true, "score.fanouts": true, "score.grid_hits": true,
		"algo.score_evals.ALG": true, "algo.score_evals.INC": true,
		"algo.score_evals.HOR": true, "algo.score_evals.HOR-I": true,
		"algo.examined.ALG": true, "algo.examined.INC": true,
		"algo.examined.HOR": true, "algo.examined.HOR-I": true,
	},
	"resolve-sparse": {
		"score.evals": true, "score.fanouts": true, "score.grid_hits": true,
		"algo.score_evals.HOR-I": true, "algo.examined.HOR-I": true,
		"persist.wal_bytes_per_append": true,
	},
}

// Print writes the human-readable report followed by the one-line JSON
// result (correct, attempted, failed, metrics) as the last line of stdout.
func (r *Result) Print(w io.Writer) error {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "perfbench %s seed=%d (%s)\n", r.Workload, r.Seed, mode)
	fmt.Fprintf(w, "  %-34s %d\n", "attempted", r.Attempted)
	fmt.Fprintf(w, "  %-34s %d\n", "failed", r.Failed)
	for _, p := range r.Props {
		flag := ""
		if p.Exact {
			flag = "  (exact)"
		}
		fmt.Fprintf(w, "  property %-25s %s%s\n", p.Name, p.Value, flag)
	}
	for _, m := range r.Named {
		fmt.Fprintf(w, "  %-34s %.6g %s\n", m.Name, m.Value, m.Unit)
	}
	metrics := r.EndToEnd
	if r.Traced {
		metrics = r.Layers
	}
	exact := exactCounts[r.Workload]
	for _, m := range metrics {
		flag := ""
		if r.Traced && exact[m.Name] {
			flag = "  (exact)"
		}
		fmt.Fprintf(w, "  %-34s %.6g %s%s\n", m.Name, m.Value, m.Unit, flag)
	}
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  error: %s\n", e)
	}
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", why)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{
		Correct:   r.Failed == 0 && len(r.Invalid) == 0 && r.Attempted > 0,
		Attempted: r.Attempted,
		Failed:    r.Failed,
		Metrics:   map[string]value{},
	}
	for _, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
		out.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// WriteSpans writes the recorded client spans and fetched server traces to
// dir/spans-<workload>-<seed>.json and returns the path.
func (r *Result) WriteSpans(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+r.Workload+"-"+strconv.FormatUint(r.Seed, 10)+".json")
	body, err := json.MarshalIndent(struct {
		Workload string           `json:"workload"`
		Seed     uint64           `json:"seed"`
		Client   []span.TraceData `json:"client"`
		Server   []span.TraceData `json:"server"`
	}{r.Workload, r.Seed, r.ClientSpans, r.ServerSpans}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, body, 0o644)
}

// ms converts a duration to fractional milliseconds, keeping every digit.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// formatMS renders a duration in ms for a span annotation.
func formatMS(d time.Duration) string { return strconv.FormatFloat(ms(d), 'f', 3, 64) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs, sorting a
// copy. An empty sample returns 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// windowedQuantile splits xs, in arrival order, into n consecutive windows
// and returns the median of the windows' q-quantiles.
func windowedQuantile(xs []float64, q float64, n int) float64 {
	if len(xs) < n {
		return quantile(xs, q)
	}
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = quantile(xs[i*len(xs)/n:(i+1)*len(xs)/n], q)
	}
	return median(qs)
}

// median is the middle value of xs (mean of the two middle ones for an even
// count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that saw no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) since
// setupRuns reset it.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) < 1 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
