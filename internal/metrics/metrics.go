// Package metrics is sesd's dependency-free telemetry substrate: counters,
// gauges and fixed-bucket histograms collected in a Registry that renders the
// Prometheus text exposition format (version 0.0.4). It exists so the service
// can expose the measured-work counters the paper's evaluation is built on —
// score evaluations, examined pairs, wall time — as time series, without
// pulling a client library into a module that is otherwise stdlib-only.
//
// Design choices, in the order they matter:
//
//   - Instruments are lock-free on the hot path. Counter and Gauge are one
//     atomic word; Histogram.Observe is one atomic bucket increment plus a
//     CAS loop on the float sum. Scrapes read the same atomics, so a render
//     never blocks an increment.
//
//   - Every instrument method is nil-receiver safe (a no-op). Packages can
//     accept optional instrument sets and call them unconditionally; an
//     unwired layer costs a nil check, not a branch forest.
//
//   - Registration panics on programmer error (duplicate or invalid names,
//     label mismatches). Metric names are wired at startup, so a bad name is
//     a bug to fail loudly on, never a runtime condition to handle.
//
//   - CounterFunc/GaugeFunc sample a closure at scrape time, so subsystems
//     that already keep atomic counters (the pool, the caches, the WAL)
//     surface them without double bookkeeping.
package metrics

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ContentType is the HTTP Content-Type of the text exposition format.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// validName reports whether s is a legal Prometheus metric name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// validLabel reports whether s is a legal label name ("le" is reserved for
// histogram buckets and rejected at registration).
func validLabel(s string) bool {
	if s == "" || s == "le" {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// escapeLabelValue escapes a label value per the exposition format: backslash,
// double quote and newline.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, c := range s {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatFloat renders a sample value. Integral values print without an
// exponent so counters read naturally; everything else uses the shortest
// round-trip form.
func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// formatLe renders a histogram bucket bound ("+Inf" for the overflow bucket).
func formatLe(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelString renders a rendered {a="b",...} block (empty for no labels).
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// atomicFloat is a float64 updated with a CAS loop over its bits.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

func (f *atomicFloat) Load() float64 { return math.Float64frombits(f.bits.Load()) }

// Counter is a monotonically increasing integer counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative deltas panic (counters only go up). Nil-safe.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("metrics: counter Add with negative delta")
	}
	if c != nil {
		c.v.Add(n)
	}
}

// Value reads the current count. Nil returns 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an integer gauge (queue depths, in-flight requests, byte sizes).
// Float-valued gauges are served by GaugeFunc.
type Gauge struct{ v atomic.Int64 }

// Set stores v. Nil-safe.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adds delta (may be negative). Nil-safe.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Inc adds one. Nil-safe.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one. Nil-safe.
func (g *Gauge) Dec() { g.Add(-1) }

// Value reads the gauge. Nil returns 0.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper bounds
// (the +Inf overflow bucket is implicit); observations are atomic, and the
// rendered cumulative counts are monotone by construction because they are
// summed from one snapshot of the per-bucket counters.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf overflow
	sum    atomicFloat
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("metrics: histogram needs at least one bucket bound")
	}
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic("metrics: histogram bucket bounds must be finite")
		}
		if i > 0 && b <= bounds[i-1] {
			panic("metrics: histogram bucket bounds must be strictly increasing")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value. Nil-safe.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, len(bounds) = +Inf
	h.counts[i].Add(1)
	h.sum.Add(v)
}

// ObserveSince records the elapsed seconds since t0. Nil-safe.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Seconds()) }

// Count returns the total number of observations. Nil returns 0.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values. Nil returns 0.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// write renders the histogram's sample lines under the family name with the
// given label prefix.
func (h *Histogram) write(w io.Writer, name string, labelNames, labelValues []string) error {
	var cum uint64
	leNames := append(append([]string{}, labelNames...), "le")
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		vals := append(append([]string{}, labelValues...), formatLe(b))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(leNames, vals), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	vals := append(append([]string{}, labelValues...), "+Inf")
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, labelString(leNames, vals), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labelString(labelNames, labelValues), formatFloat(h.sum.Load())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labelString(labelNames, labelValues), cum)
	return err
}

// vec is the shared child table of CounterVec and HistogramVec.
type vec[T any] struct {
	labels   []string
	mu       sync.RWMutex
	children map[string]T
	values   map[string][]string
	make     func() T
}

func newVec[T any](labels []string, make func() T) *vec[T] {
	for _, l := range labels {
		if !validLabel(l) {
			panic(fmt.Sprintf("metrics: invalid label name %q", l))
		}
	}
	return &vec[T]{labels: labels, children: map[string]T{}, values: map[string][]string{}, make: make}
}

func (v *vec[T]) with(values []string) T {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("metrics: got %d label values for %d labels", len(values), len(v.labels)))
	}
	key := strings.Join(values, "\xff")
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok := v.children[key]; ok {
		return c
	}
	c = v.make()
	v.children[key] = c
	v.values[key] = append([]string{}, values...)
	return c
}

// snapshot returns the child keys in sorted order plus the maps to read them.
func (v *vec[T]) snapshot() (keys []string, children map[string]T, values map[string][]string) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	children = make(map[string]T, len(v.children))
	values = make(map[string][]string, len(v.values))
	for k, c := range v.children {
		keys = append(keys, k)
		children[k] = c
		values[k] = v.values[k]
	}
	sort.Strings(keys)
	return keys, children, values
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ v *vec[*Counter] }

// With returns the child counter for the given label values, creating it on
// first use. The value count must match the registered label count.
func (cv *CounterVec) With(values ...string) *Counter {
	if cv == nil {
		return nil
	}
	return cv.v.with(values)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ v *vec[*Gauge] }

// With returns the child gauge for the given label values, creating it on
// first use.
func (gv *GaugeVec) With(values ...string) *Gauge {
	if gv == nil {
		return nil
	}
	return gv.v.with(values)
}

// HistogramVec is a histogram family partitioned by label values; every child
// shares the registered bucket bounds.
type HistogramVec struct{ v *vec[*Histogram] }

// With returns the child histogram for the given label values.
func (hv *HistogramVec) With(values ...string) *Histogram {
	if hv == nil {
		return nil
	}
	return hv.v.with(values)
}

// family is one registered metric family and knows how to render itself.
type family struct {
	name, help, kind string
	write            func(w io.Writer) error
}

// Registry collects metric families and renders them sorted by name.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

func (r *Registry) register(f *family) {
	if !validName(f.name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", f.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[f.name]; dup {
		panic(fmt.Sprintf("metrics: metric %q registered twice", f.name))
	}
	r.fams[f.name] = f
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&family{name: name, help: help, kind: "counter", write: func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %d\n", name, c.Value())
		return err
	}})
	return c
}

// CounterFunc registers a counter whose value is sampled from fn at scrape
// time — the bridge for subsystems that already keep their own atomics.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: "counter", write: func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn()))
		return err
	}})
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	cv := &CounterVec{v: newVec(labels, func() *Counter { return &Counter{} })}
	r.register(&family{name: name, help: help, kind: "counter", write: func(w io.Writer) error {
		keys, children, values := cv.v.snapshot()
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, labelString(cv.v.labels, values[k]), children[k].Value()); err != nil {
				return err
			}
		}
		return nil
	}})
	return cv
}

// GaugeVec registers a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	gv := &GaugeVec{v: newVec(labels, func() *Gauge { return &Gauge{} })}
	r.register(&family{name: name, help: help, kind: "gauge", write: func(w io.Writer) error {
		keys, children, values := gv.v.snapshot()
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, "%s%s %d\n", name, labelString(gv.v.labels, values[k]), children[k].Value()); err != nil {
				return err
			}
		}
		return nil
	}})
	return gv
}

// Gauge registers and returns an integer gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&family{name: name, help: help, kind: "gauge", write: func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %d\n", name, g.Value())
		return err
	}})
	return g
}

// GaugeFunc registers a gauge sampled from fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: "gauge", write: func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s %s\n", name, formatFloat(fn()))
		return err
	}})
}

// Histogram registers and returns a histogram with the given bucket upper
// bounds (strictly increasing, finite; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.register(&family{name: name, help: help, kind: "histogram", write: func(w io.Writer) error {
		return h.write(w, name, nil, nil)
	}})
	return h
}

// HistogramVec registers a labeled histogram family sharing one bucket layout.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	newHistogram(buckets) // validate the layout once, loudly, at registration
	hv := &HistogramVec{v: newVec(labels, func() *Histogram { return newHistogram(buckets) })}
	r.register(&family{name: name, help: help, kind: "histogram", write: func(w io.Writer) error {
		keys, children, values := hv.v.snapshot()
		for _, k := range keys {
			if err := children[k].write(w, name, hv.v.labels, values[k]); err != nil {
				return err
			}
		}
		return nil
	}})
	return hv
}

// HistogramSnapshot is a point-in-time histogram state produced by a
// HistogramFunc closure: one count per registered bucket plus the trailing
// +Inf overflow (len(buckets)+1 entries), and the sum of observed values.
type HistogramSnapshot struct {
	Counts []uint64
	Sum    float64
}

// HistogramFunc registers a histogram whose state is sampled from fn at
// scrape time — the bridge for histograms maintained elsewhere (the
// runtime/metrics families). The rendered cumulative counts are monotone by
// construction; a snapshot shorter than the bucket layout reads as zeros.
func (r *Registry) HistogramFunc(name, help string, buckets []float64, fn func() HistogramSnapshot) {
	bounds := newHistogram(buckets).bounds // validate once, loudly
	r.register(&family{name: name, help: help, kind: "histogram", write: func(w io.Writer) error {
		snap := fn()
		at := func(i int) uint64 {
			if i < len(snap.Counts) {
				return snap.Counts[i]
			}
			return 0
		}
		var cum uint64
		for i, b := range bounds {
			cum += at(i)
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatLe(b), cum); err != nil {
				return err
			}
		}
		cum += at(len(bounds))
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(snap.Sum)); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count %d\n", name, cum)
		return err
	}})
}

// Names returns the registered family names, sorted. The catalogue guard test
// diffs this against the documented metric table.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// WritePrometheus renders every family in the text exposition format, sorted
// by family name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		if err := f.write(w); err != nil {
			return err
		}
	}
	return nil
}

// Values samples every series once, keyed by its name and label block exactly
// as WritePrometheus prints them. It parses WritePrometheus's own output, so
// the map cannot drift from the exposition. Histogram _bucket series are left
// out; their _sum and _count stay.
func (r *Registry) Values() (map[string]float64, error) {
	var doc bytes.Buffer
	if err := r.WritePrometheus(&doc); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	hists := map[string]bool{}
	for _, line := range strings.Split(doc.String(), "\n") {
		if kind, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, k, _ := strings.Cut(kind, " "); k == "histogram" {
				hists[name] = true
			}
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, v, err := parseSample(line)
		if err != nil {
			return nil, err
		}
		if base, ok := strings.CutSuffix(name, "_bucket"); ok && hists[base] {
			continue
		}
		out[name+labels] = v
	}
	return out, nil
}

// ExpBuckets returns n bucket bounds growing geometrically from start by
// factor — the standard latency-histogram layout.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("metrics: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets is the default request/solve latency layout: 100µs to 30s in
// a 1-2.5-5 progression. Solves range from sub-millisecond (tiny cached
// instances) to tens of seconds (1M-user HOR-I), so the spread is wide.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// IOBuckets is the WAL append/fsync latency layout: 10µs to 1s. Page-cache
// appends sit in the tens of microseconds; fsyncs and contended disks reach
// milliseconds to hundreds of milliseconds.
var IOBuckets = []float64{
	0.00001, 0.000025, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
	0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1,
}
