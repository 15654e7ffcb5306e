package metrics

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// mustLint renders the registry and validates the document against the
// exposition-format invariants.
func mustLint(t *testing.T, r *Registry) string {
	t.Helper()
	doc := render(t, r)
	if err := Lint([]byte(doc)); err != nil {
		t.Fatalf("exposition lint: %v\ndocument:\n%s", err, doc)
	}
	return doc
}

func TestCounterGaugeRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "Operations.")
	g := r.Gauge("test_depth", "Depth.")
	r.CounterFunc("test_sampled_total", "Sampled.", func() float64 { return 42 })
	r.GaugeFunc("test_ratio", "Ratio.", func() float64 { return 0.5 })

	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)

	doc := mustLint(t, r)
	for _, want := range []string{
		"# HELP test_ops_total Operations.\n# TYPE test_ops_total counter\ntest_ops_total 5\n",
		"# TYPE test_depth gauge\ntest_depth 5\n",
		"test_sampled_total 42\n",
		"test_ratio 0.5\n",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q:\n%s", want, doc)
		}
	}
	if c.Value() != 5 || g.Value() != 5 {
		t.Errorf("Value() = %d, %d, want 5, 5", c.Value(), g.Value())
	}
}

// TestValuesFlattensExposition: Values maps every rendered series, labels
// included, to its value and drops only histogram buckets.
func TestValuesFlattensExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("test_ops_total", "Operations.").Add(3)
	r.CounterVec("test_req_total", "Requests.", "route").With(`a"b`).Inc()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(1.5)
	// A counter whose name ends in _bucket is not a histogram bucket.
	r.Counter("test_bucket", "Not a histogram.").Inc()

	got, err := r.Values()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"test_ops_total":               3,
		`test_req_total{route="a\"b"}`: 1,
		"test_latency_seconds_sum":     2,
		"test_latency_seconds_count":   2,
		"test_bucket":                  1,
	}
	if len(got) != len(want) {
		t.Errorf("Values() = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Values()[%s] = %v, want %v", k, got[k], v)
		}
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative counter Add did not panic")
		}
	}()
	NewRegistry().Counter("test_total", "t").Add(-1)
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	// Every write-path method must tolerate a nil receiver so optional
	// instrument sets need no branching at call sites.
	var c *Counter
	var g *Gauge
	var h *Histogram
	var cv *CounterVec
	var hv *HistogramVec
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Inc()
	g.Dec()
	h.Observe(1)
	if cv.With("x") != nil {
		t.Error("nil CounterVec.With returned non-nil")
	}
	if hv.With("x") != nil {
		t.Error("nil HistogramVec.With returned non-nil")
	}
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil reads returned non-zero")
	}
}

func TestHistogramBucketsAndInvariants(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	doc := mustLint(t, r)
	for _, want := range []string{
		`test_latency_seconds_bucket{le="0.1"} 2`, // 0.05 and the boundary 0.1
		`test_latency_seconds_bucket{le="1"} 3`,
		`test_latency_seconds_bucket{le="10"} 4`,
		`test_latency_seconds_bucket{le="+Inf"} 5`,
		"test_latency_seconds_count 5",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q:\n%s", want, doc)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count() = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+5+50; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum() = %v, want %v", got, want)
	}
}

func TestVecChildrenAndLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_requests_total", "Requests.", "route", "code")
	hv := r.HistogramVec("test_duration_seconds", "Duration.", []float64{1}, "route")

	cv.With("solve", "200").Add(3)
	cv.With("solve", "400").Inc()
	cv.With("stats", "200").Inc()
	cv.With("solve", "200").Inc() // existing child, not a new series
	hv.With("solve").Observe(0.5)
	hv.With("solve").Observe(2)

	doc := mustLint(t, r)
	for _, want := range []string{
		`test_requests_total{route="solve",code="200"} 4`,
		`test_requests_total{route="solve",code="400"} 1`,
		`test_requests_total{route="stats",code="200"} 1`,
		`test_duration_seconds_bucket{route="solve",le="1"} 1`,
		`test_duration_seconds_bucket{route="solve",le="+Inf"} 2`,
		`test_duration_seconds_count{route="solve"} 2`,
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("document missing %q:\n%s", want, doc)
		}
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("test_paths_total", "Paths.", "path")
	cv.With("a\\b\"c\nd").Inc()
	doc := mustLint(t, r)
	want := `test_paths_total{path="a\\b\"c\nd"} 1`
	if !strings.Contains(doc, want) {
		t.Errorf("document missing escaped label %q:\n%s", want, doc)
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(r *Registry)
	}{
		{"duplicate name", func(r *Registry) { r.Counter("x_total", "a"); r.Gauge("x_total", "b") }},
		{"invalid name", func(r *Registry) { r.Counter("0bad", "a") }},
		{"empty name", func(r *Registry) { r.Counter("", "a") }},
		{"le label", func(r *Registry) { r.CounterVec("x_total", "a", "le") }},
		{"invalid label", func(r *Registry) { r.CounterVec("x_total", "a", "bad-label") }},
		{"unsorted buckets", func(r *Registry) { r.Histogram("h", "a", []float64{2, 1}) }},
		{"empty buckets", func(r *Registry) { r.Histogram("h", "a", nil) }},
		{"infinite bucket", func(r *Registry) { r.Histogram("h", "a", []float64{1, math.Inf(1)}) }},
		{"label arity", func(r *Registry) { r.CounterVec("x_total", "a", "l").With("v1", "v2") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", tc.name)
				}
			}()
			tc.f(NewRegistry())
		})
	}
}

func TestNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "z")
	r.Gauge("aa", "a")
	r.Histogram("mm_seconds", "m", []float64{1})
	got := r.Names()
	want := []string{"aa", "mm_seconds", "zz_total"}
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

// TestConcurrentScrape hammers every instrument kind from parallel goroutines
// while other goroutines scrape, then checks the final totals. Run under
// -race this is the registry's thread-safety proof.
func TestConcurrentScrape(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_ops_total", "t")
	g := r.Gauge("test_depth", "t")
	h := r.Histogram("test_lat_seconds", "t", []float64{0.001, 0.01, 0.1, 1})
	cv := r.CounterVec("test_routed_total", "t", "route")
	hv := r.HistogramVec("test_routed_seconds", "t", []float64{0.01, 1}, "route")

	const (
		writers = 8
		perG    = 2000
	)
	routes := []string{"solve", "stats", "extend", "jobs"}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i%100) / 100)
				route := routes[(w+i)%len(routes)]
				cv.With(route).Inc()
				hv.With(route).Observe(0.5)
			}
		}(w)
	}
	// Scrape concurrently with the writers; every rendered document must
	// satisfy the histogram invariants even mid-update.
	scrapeDone := make(chan struct{})
	var scrapeErr error
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 50; i++ {
			var buf bytes.Buffer
			if err := r.WritePrometheus(&buf); err != nil {
				scrapeErr = err
				return
			}
			if err := Lint(buf.Bytes()); err != nil {
				scrapeErr = err
				return
			}
		}
	}()
	wg.Wait()
	<-scrapeDone
	if scrapeErr != nil {
		t.Fatalf("concurrent scrape: %v", scrapeErr)
	}

	const total = writers * perG
	if c.Value() != total {
		t.Errorf("counter = %d, want %d", c.Value(), total)
	}
	if g.Value() != total {
		t.Errorf("gauge = %d, want %d", g.Value(), total)
	}
	if h.Count() != total {
		t.Errorf("histogram count = %d, want %d", h.Count(), total)
	}
	var cvSum int64
	for _, route := range routes {
		cvSum += cv.With(route).Value()
	}
	if cvSum != total {
		t.Errorf("countervec sum = %d, want %d", cvSum, total)
	}
	mustLint(t, r)
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{0, "0"}, {5, "5"}, {-3, "-3"}, {0.5, "0.5"}, {1e15, "1e+15"},
		{1234567, "1234567"},
	}
	for _, tc := range cases {
		if got := formatFloat(tc.v); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestBucketHelpers(t *testing.T) {
	b := ExpBuckets(0.001, 10, 4)
	want := []float64{0.001, 0.01, 0.1, 1}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
	for i := 1; i < len(DurationBuckets); i++ {
		if DurationBuckets[i] <= DurationBuckets[i-1] {
			t.Fatalf("DurationBuckets not increasing at %d", i)
		}
	}
	for i := 1; i < len(IOBuckets); i++ {
		if IOBuckets[i] <= IOBuckets[i-1] {
			t.Fatalf("IOBuckets not increasing at %d", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("ExpBuckets with factor 1 did not panic")
		}
	}()
	ExpBuckets(1, 1, 3)
}
