package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/metrics/span"
	"repro/internal/seio"
	"repro/internal/server"
)

// resolve-sparse is the streaming path: one subscriber holds a HOR-I
// /subscribe stream on a sparse instance while one producer, in a closed
// loop, POSTs a two-cell mutation batch and waits for the push of the
// version it wrote. The sparse kernel, the warm engine rebuild with grid
// reuse, the O(nnz) digest and WAL appends do the work; the result cache is
// never hit because every cycle solves a new version.

// sparseInstanceName is the instance the stream follows.
const sparseInstanceName = "stream"

// postSpan names the client span around the mutation POST.
const postSpan = "POST /mutations"

// pushTimeout bounds the wait for one push.
const pushTimeout = 60 * time.Second

var errNoPush = errors.New("no push before the deadline")

// subscription is one open /subscribe stream. A goroutine reads it and hands
// each resolve event to next; close cancels the stream and waits for the
// goroutine to end.
type subscription struct {
	cancel context.CancelFunc
	events chan seio.ResolveEvent
	errc   chan error
	done   chan struct{}
}

func subscribe(ctx context.Context, base, name string, k int) (*subscription, error) {
	sctx, cancel := context.WithCancel(ctx)
	url := fmt.Sprintf("%s/instances/%s/subscribe?algorithm=HOR-I&k=%d", base, name, k)
	req, err := http.NewRequestWithContext(sctx, http.MethodGet, url, nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// No client timeout: the stream stays open for the whole run.
	resp, err := (&http.Client{Transport: &http.Transport{DisableCompression: true}}).Do(req)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d", resp.StatusCode)
	}
	s := &subscription{
		cancel: cancel,
		events: make(chan seio.ResolveEvent),
		errc:   make(chan error, 1),
		done:   make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			if v, ok := strings.CutPrefix(line, "event: "); ok {
				event = v
				continue
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			var ev seio.ResolveEvent
			err := json.Unmarshal([]byte(data), &ev)
			if err == nil && event != "resolve" {
				err = fmt.Errorf("stream event %q: %s", event, data)
			}
			if err != nil {
				s.errc <- err
				return
			}
			select {
			case s.events <- ev:
			case <-sctx.Done():
				return
			}
		}
		if sctx.Err() == nil {
			s.errc <- fmt.Errorf("stream ended: %v", sc.Err())
		}
	}()
	return s, nil
}

// next waits for the next push.
func (s *subscription) next() (seio.ResolveEvent, error) {
	t := time.NewTimer(pushTimeout)
	defer t.Stop()
	select {
	case ev := <-s.events:
		return ev, nil
	case err := <-s.errc:
		return seio.ResolveEvent{}, err
	case <-t.C:
		return seio.ResolveEvent{}, errNoPush
	}
}

func (s *subscription) close() {
	s.cancel()
	<-s.done
}

// sparseState is one set-up of resolve-sparse.
type sparseState struct {
	d    *sesd
	sub  *subscription
	c    *http.Client
	inst *core.Instance
	last seio.ResolveEvent // the newest push
	rng  *rand.Rand        // draws the mutated cells
}

func (st *sparseState) close() {
	st.sub.close()
	st.d.close()
	st.c.CloseIdleConnections()
}

// cycleResult is one mutate-and-wait cycle.
type cycleResult struct {
	total, write time.Duration
	version      uint64 // the version the mutation wrote
	ev           seio.ResolveEvent
}

// cycle POSTs a two-cell mutation batch and waits for the push of the
// version it wrote. A non-nil trace gets spans around both steps, and the
// POST carries its traceparent so sesd's trace of it shares the trace ID.
func (st *sparseState) cycle(ctx context.Context, tr *span.Trace) (cycleResult, error) {
	users, events := st.inst.NumUsers(), st.inst.NumEvents()
	cell := func() seio.CellUpdate {
		return seio.CellUpdate{User: st.rng.IntN(users), Index: st.rng.IntN(events), Value: st.rng.Float64()}
	}
	body, err := json.Marshal(seio.BatchMutateRequest{Mutations: []seio.MutateRequest{{Interest: []seio.CellUpdate{cell(), cell()}}}})
	if err != nil {
		return cycleResult{}, err
	}
	var out cycleResult
	t0 := time.Now()
	post := tr.Start(postSpan)
	code, b, err := do(ctx, st.c, http.MethodPost, st.d.base+"/instances/"+sparseInstanceName+"/mutations", body, tr.Traceparent())
	post.End()
	out.write = time.Since(t0)
	if err != nil {
		return out, err
	}
	if !is2xx(code) {
		return out, errStatus(code, b)
	}
	var mr seio.BatchMutateResponse
	if err := json.Unmarshal(b, &mr); err != nil {
		return out, fmt.Errorf("mutations: decode: %w", err)
	}
	out.version = mr.Instance.Version
	wait := tr.Start("wait push")
	out.ev, err = st.sub.next()
	wait.End()
	out.total = time.Since(t0)
	if err != nil {
		return out, err
	}
	st.last = out.ev
	return out, nil
}

// checkPush checks that a push answers the version just written and was
// served warm.
func checkPush(version uint64, ev *seio.ResolveEvent) error {
	if ev.Instance.Version != version || !ev.Warm || len(ev.Schedule.Assignments) == 0 {
		return fmt.Errorf("push for version %d (warm=%v, %d assignments), want warm version %d",
			ev.Instance.Version, ev.Warm, len(ev.Schedule.Assignments), version)
	}
	return nil
}

// checkLast compares the newest push with a cold solve of that version as
// GET /instances/{name} returns it.
func (st *sparseState) checkLast(ctx context.Context, k int) error {
	code, b, err := do(ctx, st.c, http.MethodGet, st.d.base+"/instances/"+sparseInstanceName, nil, "")
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return errStatus(code, b)
	}
	inst, err := seio.ReadInstance(bytes.NewReader(b))
	if err != nil {
		return err
	}
	if inst.Digest() != st.last.Instance.Digest {
		return fmt.Errorf("GET returned digest %s, the last push was for %s", inst.Digest(), st.last.Instance.Digest)
	}
	sched, err := algo.NewWithOptions("HOR-I", 0, core.ScorerOptions{Workers: 2})
	if err != nil {
		return err
	}
	res, err := sched.ScheduleCtx(ctx, inst, k)
	if err != nil {
		return err
	}
	if want := seio.NewScheduleMsg(inst, res.Schedule); !reflect.DeepEqual(want, st.last.Schedule) {
		return fmt.Errorf("last push of version %d differs from a cold solve: got %+v, want %+v", st.last.Instance.Version, st.last.Schedule, want)
	}
	return nil
}

// setup starts sesd, uploads a generated instance, opens the stream, takes
// its first (cold) push and runs one warm cycle.
func (st *sparseState) setup(ctx context.Context, cfg *config, scfg server.Config, genMS *[]float64) error {
	sz := cfg.sizes
	dcfg := dataset.DefaultConfig(sz.sparseK, sz.sparseUsers, dataset.Uniform, instanceSeed)
	dcfg.NumEvents, dcfg.NumIntervals, dcfg.Density = sz.sparseEvents, sz.sparseIntervals, sz.sparseDensity
	d, err := startSesd(scfg, cfg.out)
	if err != nil {
		return err
	}
	st.d, st.c = d, newClient()
	fail := func(err error) error {
		if st.sub != nil {
			st.sub.close()
		}
		d.close()
		return err
	}
	t0 := time.Now()
	inst, err := dataset.Generate(dcfg)
	if err != nil {
		return fail(err)
	}
	*genMS = append(*genMS, ms(time.Since(t0)))
	var buf bytes.Buffer
	if err := seio.WriteInstance(&buf, inst); err != nil {
		return fail(err)
	}
	st.inst = inst
	code, b, err := do(ctx, st.c, http.MethodPut, d.base+"/instances/"+sparseInstanceName, buf.Bytes(), "")
	if err != nil {
		return fail(err)
	}
	if !is2xx(code) {
		return fail(fmt.Errorf("upload: %w", errStatus(code, b)))
	}
	if st.sub, err = subscribe(ctx, d.base, sparseInstanceName, sz.sparseK); err != nil {
		return fail(err)
	}
	if st.last, err = st.sub.next(); err != nil {
		return fail(fmt.Errorf("first push: %w", err))
	}
	// The warm-up cycle draws from its own stream so the measured cells
	// depend on the seed alone.
	st.rng = rand.New(rand.NewPCG(cfg.seed, 1))
	r, err := st.cycle(ctx, nil)
	if err == nil {
		err = checkPush(r.version, &r.ev)
	}
	if err != nil {
		return fail(fmt.Errorf("warm-up cycle: %w", err))
	}
	st.rng = rand.New(rand.NewPCG(cfg.seed, 0x5e5a45e))
	return nil
}

func runResolveSparse(ctx context.Context, cfg *config) (*Result, error) {
	sz := cfg.sizes
	res := &Result{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced}
	// One solver at a time, scoring on two goroutines; the trace ring holds
	// far more than the two traces a cycle leaves.
	scfg := server.Config{Workers: 1, ScoreWorkers: 2, TraceStore: 4096}
	var genMS []float64
	st, setupS, err := setupRuns(sz.setups, func() (*sparseState, error) {
		st := &sparseState{}
		return st, st.setup(ctx, cfg, scfg, &genMS)
	}, (*sparseState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()

	inst := st.inst
	nnz := inst.InterestNonzeros()
	cells := int64(inst.NumUsers()) * int64(inst.NumEvents()+inst.NumCompeting())
	res.prop("instance", fmt.Sprintf("sparse Unf |U|=%d |E|=%d |T|=%d |C|=%d k=%d", inst.NumUsers(), inst.NumEvents(), inst.NumIntervals(), inst.NumCompeting(), sz.sparseK), true)
	res.prop("nnz", nnz, true)
	res.prop("density", strconv.FormatFloat(float64(nnz)/float64(cells), 'f', 4, 64), true)
	res.prop("mix", "1 subscriber (HOR-I), 1 producer posting 2-cell batches, closed loop", true)
	res.prop("cache_hit_share", 0, true)

	measure := func(phase time.Duration, count int, traced bool) (lat, writes []float64) {
		start := time.Now()
		for i := 0; (count > 0 && i < count) || (count == 0 && (i == 0 || time.Since(start) < phase)); i++ {
			var tr *span.Trace
			if traced {
				tr = span.NewRoot("resolve.cycle")
			}
			res.Attempted++
			r, err := st.cycle(ctx, tr)
			if tr != nil {
				tr.Finish()
				res.ClientSpans = append(res.ClientSpans, tr.Snapshot())
			}
			if err == nil {
				cfg.tamperWith(&r.ev)
				err = checkPush(r.version, &r.ev)
			}
			if err != nil {
				res.fail(err)
				continue
			}
			lat = append(lat, ms(r.total))
			writes = append(writes, ms(r.write))
		}
		return lat, writes
	}
	finalCheck := func() {
		res.Attempted++
		if err := st.checkLast(ctx, sz.sparseK); err != nil {
			res.fail(err)
		}
	}
	warmShare := func(before, after promSample) {
		acq := delta(before, after, "sesd_resolve_solves_total")
		res.prop("warm_acquire_share", fmt.Sprintf("%.4f of %.0f re-solves", ratio(delta(before, after, "sesd_resolve_warm_total"), acq), acq), false)
	}

	c := st.c
	if !cfg.traced {
		before, err := st.d.scrape(ctx, c)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		lat, writes := measure(cfg.measure, 0, false)
		elapsed := time.Since(start)
		after, err := st.d.scrape(ctx, c)
		if err != nil {
			return nil, err
		}
		finalCheck()
		warmShare(before, after)
		res.prop("cycles", len(lat), false)
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		p50, p90, rate := quantile(lat, 0.5), quantile(lat, 0.9), float64(len(lat))/elapsed.Seconds()
		es := newMetricSet(endToEnd)
		es.set("latency_ms.p50", p50)
		es.set("latency_ms.tail", p90)
		es.set("ops_per_s", rate)
		es.set("peak_rss_mb", rss)
		es.set("setup_s", setupS)
		res.EndToEnd = es.list()
		res.Named = []Metric{
			{"resolve_ms.p50", "ms", p50}, {"resolve_ms.p90", "ms", p90}, {"resolves_per_s", "1/s", rate},
			{"mutate_ms.p50", "ms", quantile(writes, 0.5)},
			{"setup_s", "s", setupS}, {"error_rate", "ratio", res.errorRate()}, {"peak_rss_mb", "MB", rss},
		}
		return res, nil
	}

	ls := newMetricSet(layerMetrics)
	if err := setInstanceLayers(ls, inst, genMS); err != nil {
		return nil, err
	}
	// The traced phase runs first, from the state set-up left, so its work
	// counts repeat exactly for a seed; the untraced phase it is compared
	// with follows.
	before, err := st.d.scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	m0 := readMem()
	traced, _ := measure(0, sz.sparseTracedCycles, true)
	m1 := readMem()
	after, err := st.d.scrape(ctx, c)
	if err != nil {
		return nil, err
	}
	var sl serverLayers
	n := sz.sparseTracedCycles
	ids, err := st.d.recentTraces(ctx, c, "resolve", n)
	if err != nil {
		res.invalidf("resolve traces: %v", err)
	}
	for _, td := range res.ClientSpans {
		ids = append(ids, td.TraceID)
	}
	for _, id := range ids {
		td, err := st.d.fetchTrace(ctx, c, id)
		if err != nil {
			res.invalidf("server trace %s: %v", id, err)
			continue
		}
		res.ServerSpans = append(res.ServerSpans, td)
		sl.add(td)
	}
	checkEvictions(res, after)
	plain, _ := measure(cfg.measure/2, 0, false)
	finalCheck()
	warmShare(before, after)
	sl.set(ls, before, after)
	solves := delta(before, after, "sesd_resolve_solves_total")
	ls.set("algo.score_evals.HOR-I", ratio(delta(before, after, "sesd_solve_score_evals_total"), solves))
	ls.set("algo.examined.HOR-I", ratio(delta(before, after, "sesd_solve_examined_total"), solves))
	var overhead []float64
	for _, td := range res.ServerSpans {
		if td.Route != "mutate_batch" {
			continue
		}
		for _, cl := range res.ClientSpans {
			if cl.TraceID != td.TraceID {
				continue
			}
			for _, sp := range cl.Root.Children {
				if sp.Name == postSpan {
					overhead = append(overhead, sp.DurationMS-td.DurationMS)
				}
			}
		}
	}
	ls.set("http.overhead_ms", median(overhead))
	setRuntime(ls, m0, m1, n)
	setOverhead(ls, quantile(plain, 0.5), quantile(traced, 0.5))
	res.Layers = ls.list()
	return res, nil
}
