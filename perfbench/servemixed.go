package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/seio"
	"repro/internal/server"
)

// serve-mixed is sesd under an open loop at a fixed rate, about half the
// rate at which sesload first saw a backlog, with sesload's mix of solves,
// extends, PATCHes and batch mutations against an in-process sesd that
// writes a WAL. HTTP, the solver pool, the result cache, the store digest and
// the WAL carry the load; scoring is light. Writes run beside reads so a gain
// for one that costs the other shows.

// mixInstanceName is the instance the mix targets.
const mixInstanceName = "mixed"

// mixWindows is the number of consecutive stretches of requests whose
// quantiles serve-mixed's gated latencies take the median of.
const mixWindows = 10

// mixConns is the most client connections the open loop uses: two, or fewer
// on a machine with fewer cores.
func mixConns() int { return min(2, runtime.NumCPU()) }

// mixState is one set-up of serve-mixed.
type mixState struct {
	d    *sesd
	inst *core.Instance
}

// checkMix checks one response: a 2xx status whose body decodes into the
// kind's response type. It returns the decoded solve response for solves and
// extends.
func checkMix(r request, s *sample, k int) (*seio.SolveResponse, error) {
	if s.err != nil {
		return nil, s.err
	}
	if !is2xx(s.status) {
		return nil, errStatus(s.status, s.body)
	}
	dec := json.NewDecoder(bytes.NewReader(s.body))
	dec.DisallowUnknownFields()
	switch r.kind {
	case "solve", "extend":
		var resp seio.SolveResponse
		if err := dec.Decode(&resp); err != nil {
			return nil, fmt.Errorf("%s: decode: %w", r.kind, err)
		}
		if resp.Instance.Name != mixInstanceName || len(resp.Schedule.Assignments) == 0 || len(resp.Schedule.Assignments) > k {
			return nil, fmt.Errorf("%s: schedule of %d assignments for %q", r.kind, len(resp.Schedule.Assignments), resp.Instance.Name)
		}
		return &resp, nil
	case "patch":
		var info seio.InstanceInfo
		if err := dec.Decode(&info); err != nil {
			return nil, fmt.Errorf("patch: decode: %w", err)
		}
		if info.Name != mixInstanceName || info.Version < 2 {
			return nil, fmt.Errorf("patch: instance %q at version %d", info.Name, info.Version)
		}
	case "batch":
		var resp seio.BatchMutateResponse
		if err := dec.Decode(&resp); err != nil {
			return nil, fmt.Errorf("batch: decode: %w", err)
		}
		if resp.Applied != 2 {
			return nil, fmt.Errorf("batch: applied %d of 2 mutations", resp.Applied)
		}
	}
	return nil, nil
}

// mixOutcome is what one open-loop phase measured.
type mixOutcome struct {
	samples            []sample
	ok                 []int     // indexes of the samples whose output checked out
	all, reads, writes []float64 // latency from due time, ms
	lags               []float64
	elapsed            time.Duration
	counts             map[string]int
	solves, cached     int
	uncached           []*seio.SolveResponse // uncached HOR-I solves
}

// drive runs one open-loop phase and checks every response.
func (st *mixState) drive(ctx context.Context, cfg *config, res *Result, reqs []request, traced bool) mixOutcome {
	samples, lags, start := openLoop(ctx, st.d.base, reqs, cfg.sizes.mixRate, mixConns(), traced)
	out := mixOutcome{samples: samples, lags: lags, counts: map[string]int{}}
	var last time.Time
	for i := range samples {
		r, s := reqs[i], &samples[i]
		out.counts[r.kind]++
		res.Attempted++
		cfg.tamperWith(&s.body)
		resp, err := checkMix(r, s, cfg.sizes.mixK)
		if err != nil {
			res.fail(err)
			continue
		}
		out.ok = append(out.ok, i)
		if s.done.After(last) {
			last = s.done
		}
		lat := ms(s.done.Sub(s.due))
		out.all = append(out.all, lat)
		if r.isWrite() {
			out.writes = append(out.writes, lat)
		} else {
			out.reads = append(out.reads, lat)
		}
		if r.kind == "solve" {
			out.solves++
			if resp.Cached {
				out.cached++
			} else {
				out.uncached = append(out.uncached, resp)
			}
		}
	}
	out.elapsed = last.Sub(start)
	return out
}

func runServeMixed(ctx context.Context, cfg *config) (*Result, error) {
	sz := cfg.sizes
	res := &Result{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced}
	n := max(int(sz.mixRate*cfg.measure.Seconds()), 1)
	// Every request of the run leaves a trace; the ring holds them all so
	// none is evicted before the traced phase reads it.
	scfg := server.Config{Workers: 2, TraceStore: n + 1024}
	c := newClient()
	defer c.CloseIdleConnections()
	var genMS []float64
	dcfg := dataset.DefaultConfig(sz.mixK, sz.mixUsers, dataset.Uniform, instanceSeed)
	st, setupS, err := setupRuns(sz.mixSetups, func() (*mixState, error) {
		d, err := startSesd(scfg, cfg.out)
		if err != nil {
			return nil, err
		}
		st := &mixState{d: d}
		if err := st.setup(ctx, c, dcfg, sz.mixK, &genMS); err != nil {
			d.close()
			return nil, err
		}
		return st, nil
	}, func(st *mixState) { st.d.close() })
	if err != nil {
		return nil, err
	}
	defer st.d.close()

	inst := st.inst
	sh := mixShape{name: mixInstanceName, users: inst.NumUsers(), events: inst.NumEvents(), intervals: inst.NumIntervals(), k: sz.mixK}
	rng := rand.New(rand.NewPCG(cfg.seed, 0x5e510ad))
	res.prop("instance", fmt.Sprintf("dense Unf |U|=%d |E|=%d |T|=%d |C|=%d k=%d", sh.users, sh.events, sh.intervals, inst.NumCompeting(), sh.k), true)
	res.prop("nnz", inst.InterestNonzeros(), true)
	res.prop("density", 1.0, true)
	res.prop("offered", fmt.Sprintf("%.0f req/s open loop over %d connections", sz.mixRate, mixConns()), true)

	// mixProps reports a phase's mix and hit share and invalidates the run
	// when the generator fell behind the schedule.
	mixProps := func(phase string, o mixOutcome) {
		res.prop(phase+"mix", fmt.Sprintf("solve=%d extend=%d patch=%d batch=%d", o.counts["solve"], o.counts["extend"], o.counts["patch"], o.counts["batch"]), true)
		res.prop(phase+"cache_hit_share", fmt.Sprintf("%.4f of %d solves", ratio(float64(o.cached), float64(o.solves)), o.solves), false)
		lag := quantile(o.lags, 0.99)
		res.prop(phase+"gen_lag_ms.p99", fmt.Sprintf("%.3f", lag), false)
		if lag > ms(sz.mixLagBound) {
			res.invalidf("%sgenerator lag p99 %.3f ms exceeds %v: the offered rate was not held", phase, lag, sz.mixLagBound)
		}
	}
	warmShare := func(before, after promSample) {
		hits := delta(before, after, "sesd_engine_cache_hits_total")
		acq := hits + delta(before, after, "sesd_engine_cache_misses_total")
		res.prop("warm_acquire_share", fmt.Sprintf("%.4f of %.0f acquires", ratio(hits+delta(before, after, "sesd_engine_cache_warm_builds_total"), acq), acq), false)
	}

	if !cfg.traced {
		before, err := st.d.scrape(ctx, c)
		if err != nil {
			return nil, err
		}
		o := st.drive(ctx, cfg, res, mixRequests(rng, sh, n), false)
		after, err := st.d.scrape(ctx, c)
		if err != nil {
			return nil, err
		}
		mixProps("", o)
		warmShare(before, after)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		// Sub-millisecond medians move with every stall of a shared host; the
		// median over ten stretches of the run keeps one stall to one stretch.
		p50, p90 := windowedQuantile(o.all, 0.5, mixWindows), windowedQuantile(o.all, 0.9, mixWindows)
		rate := float64(len(o.all)) / o.elapsed.Seconds()
		es := newMetricSet(endToEnd)
		es.set("latency_ms.p50", p50)
		es.set("latency_ms.tail", p90)
		es.set("ops_per_s", rate)
		es.set("peak_rss_mb", rss)
		es.set("setup_s", setupS)
		res.EndToEnd = es.list()
		res.Named = []Metric{
			{"request_ms.p50", "ms", quantile(o.all, 0.5)}, {"request_ms.p90", "ms", quantile(o.all, 0.9)},
			{"request_ms.p99", "ms", quantile(o.all, 0.99)},
			{"read_ms.p50", "ms", quantile(o.reads, 0.5)}, {"read_ms.p99", "ms", quantile(o.reads, 0.99)},
			{"write_ms.p50", "ms", quantile(o.writes, 0.5)}, {"write_ms.p99", "ms", quantile(o.writes, 0.99)},
			{"requests_per_s", "1/s", rate}, {"setup_s", "s", setupS},
			{"error_rate", "ratio", res.errorRate()}, {"peak_rss_mb", "MB", rss},
		}
		return res, nil
	}

	ls := newMetricSet(layerMetrics)
	if err := setInstanceLayers(ls, inst, genMS); err != nil {
		return nil, err
	}

	plain := st.drive(ctx, cfg, res, mixRequests(rng, sh, n/2), false)
	before, err := st.d.scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	m0 := readMem()
	o := st.drive(ctx, cfg, res, mixRequests(rng, sh, n/2), true)
	m1 := readMem()
	after, err := st.d.scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	var (
		sl              serverLayers
		overhead        []float64
		evals, examined float64
	)
	for _, i := range o.ok {
		s := &o.samples[i]
		res.ClientSpans = append(res.ClientSpans, s.trace.Snapshot())
		td, err := st.d.fetchTrace(ctx, c, s.trace.ID())
		if err != nil {
			res.invalidf("server trace of request %d: %v", i, err)
			continue
		}
		res.ServerSpans = append(res.ServerSpans, td)
		sl.add(td)
		overhead = append(overhead, ms(s.done.Sub(s.sent))-td.DurationMS)
	}
	for _, resp := range o.uncached {
		evals += float64(resp.ScoreEvals)
		examined += float64(resp.Examined)
	}
	checkEvictions(res, after)
	mixProps("untraced ", plain)
	mixProps("traced ", o)
	warmShare(before, after)
	sl.set(ls, before, after)
	ls.set("algo.score_evals.HOR-I", ratio(evals, float64(len(o.uncached))))
	ls.set("algo.examined.HOR-I", ratio(examined, float64(len(o.uncached))))
	ls.set("http.overhead_ms", median(overhead))
	ls.set("gen_lag_ms.p99", quantile(o.lags, 0.99))
	setRuntime(ls, m0, m1, len(o.samples))
	setOverhead(ls, quantile(plain.all, 0.5), quantile(o.all, 0.5))
	res.Layers = ls.list()
	return res, nil
}

// setup starts one serve-mixed set-up on a started sesd: generate the
// instance, upload it, and warm the engine and result caches with one solve
// and one extend.
func (st *mixState) setup(ctx context.Context, c *http.Client, dcfg dataset.Config, k int, genMS *[]float64) error {
	t0 := time.Now()
	inst, err := dataset.Generate(dcfg)
	if err != nil {
		return err
	}
	*genMS = append(*genMS, ms(time.Since(t0)))
	var buf bytes.Buffer
	if err := seio.WriteInstance(&buf, inst); err != nil {
		return err
	}
	st.inst = inst
	code, body, err := do(ctx, c, http.MethodPut, st.d.base+"/instances/"+mixInstanceName, buf.Bytes(), "")
	if err != nil {
		return err
	}
	if !is2xx(code) {
		return fmt.Errorf("upload: %w", errStatus(code, body))
	}
	sh := mixShape{name: mixInstanceName, users: inst.NumUsers(), events: inst.NumEvents(), intervals: inst.NumIntervals(), k: k}
	for _, kind := range []string{"solve", "extend"} {
		r := mixRequest(kind, sh, nil)
		code, body, err := do(ctx, c, r.method, st.d.base+r.path, r.body, "")
		if err != nil {
			return fmt.Errorf("warm-up %s: %w", kind, err)
		}
		if !is2xx(code) {
			return fmt.Errorf("warm-up %s: %w", kind, errStatus(code, body))
		}
	}
	return nil
}
