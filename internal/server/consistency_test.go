package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	ses "repro"
	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/score"
	"repro/internal/seio"
)

// TestVersionedCacheConsistency is the server-level half of the incremental
// re-solve equality gate: drive PATCH → solve → PATCH → re-solve chains over
// HTTP — so every post-mutation solve runs on whatever engine the cache
// retired and warm-rebuilt — and require each response bit-identical
// (utility, assignments, ScoreEvals, Examined) to a cold in-process solve of
// the instance document the server itself serves back at that version.
// Table-driven over dense and sparse representations and scoring worker
// counts, because the warm path must not depend on either.
func TestVersionedCacheConsistency(t *testing.T) {
	sparseDoc, denseDoc := sparseUpload(t, 120, 17)
	muts := []seio.MutateRequest{
		{Interest: []seio.CellUpdate{{User: 3, Index: 0, Value: 0.8}},
			Activity: []seio.CellUpdate{{User: 5, Index: 1, Value: 0.6}}},
		{Interest: []seio.CellUpdate{{User: 7, Index: 2, Value: 0.1}}},
		{Interest: []seio.CellUpdate{{User: 3, Index: 1, Value: 0.4}},
			Activity: []seio.CellUpdate{{User: 2, Index: 0, Value: 0.9}}},
	}
	for _, tc := range []struct {
		label string
		doc   []byte
	}{{"dense", denseDoc}, {"sparse", sparseDoc}} {
		for _, workers := range []int{0, 3, 8} {
			t.Run(fmt.Sprintf("%s/w%d", tc.label, workers), func(t *testing.T) {
				srv, ts := newTestServer(t, Config{Workers: 2, Queue: 16, ScoreWorkers: workers})
				c := ts.Client()
				do(t, c, "PUT", ts.URL+"/instances/x", tc.doc, http.StatusCreated, nil)

				for step, m := range muts {
					var info seio.InstanceInfo
					do(t, c, "PATCH", ts.URL+"/instances/x", jsonBody(t, m), http.StatusOK, &info)
					if info.Version != uint64(step+2) {
						t.Fatalf("step %d: version %d, want %d", step, info.Version, step+2)
					}

					// The cold reference input is the document the server
					// itself serves at this version — no shared state with
					// the warm path below.
					resp, err := c.Get(ts.URL + "/instances/x")
					if err != nil {
						t.Fatal(err)
					}
					inst, err := seio.ReadInstance(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					cold, err := score.New(inst, core.ScorerOptions{Workers: workers})
					if err != nil {
						t.Fatal(err)
					}

					for _, name := range algo.Names() {
						var warm seio.SolveResponse
						body := jsonBody(t, seio.SolveRequest{Algorithm: name, K: 3, Seed: 5})
						do(t, c, "POST", ts.URL+"/instances/x/solve", body, http.StatusOK, &warm)
						if warm.Cached {
							t.Fatalf("step %d %s: first solve claimed cached", step, name)
						}
						sched, err := algo.NewWithEngine(name, 5, cold)
						if err != nil {
							t.Fatal(err)
						}
						res, err := sched.ScheduleCtx(context.Background(), inst, 3)
						if err != nil {
							t.Fatal(err)
						}
						ref := seio.NewScheduleMsg(inst, res.Schedule)
						label := fmt.Sprintf("step %d %s", step, name)
						if warm.Schedule.Utility != ref.Utility {
							t.Errorf("%s: utility %v warm vs %v cold", label, warm.Schedule.Utility, ref.Utility)
						}
						if warm.ScoreEvals != res.ScoreEvals || warm.Examined != res.Examined {
							t.Errorf("%s: counters %d/%d warm vs %d/%d cold",
								label, warm.ScoreEvals, warm.Examined, res.ScoreEvals, res.Examined)
						}
						if len(warm.Schedule.Assignments) != len(ref.Assignments) {
							t.Fatalf("%s: %d assignments warm vs %d cold",
								label, len(warm.Schedule.Assignments), len(ref.Assignments))
						}
						for i := range ref.Assignments {
							if warm.Schedule.Assignments[i] != ref.Assignments[i] {
								t.Errorf("%s: assignment %d = %+v warm vs %+v cold",
									label, i, warm.Schedule.Assignments[i], ref.Assignments[i])
							}
						}

						// The identical re-solve must come from the result
						// cache, byte-equal in the fields that matter.
						var again seio.SolveResponse
						do(t, c, "POST", ts.URL+"/instances/x/solve", body, http.StatusOK, &again)
						if !again.Cached {
							t.Errorf("%s: repeat solve missed the cache", label)
						}
						if again.Schedule.Utility != warm.Schedule.Utility || again.ScoreEvals != warm.ScoreEvals {
							t.Errorf("%s: cached replay diverged", label)
						}
					}
					cold.Close()
				}
				if srv.engines.warmBuilds.Load() == 0 {
					t.Error("mutation chain never exercised the warm-rebuild path")
				}
			})
		}
	}
}

// sameMsgBits fails unless got is bit for bit the message seio.NewScheduleMsg
// builds, with a cold scorer, for got's own schedule on inst.
func sameMsgBits(t *testing.T, label string, inst *core.Instance, got seio.ScheduleMsg) {
	t.Helper()
	s, err := got.Replay(inst)
	if err != nil {
		t.Fatalf("%s: replay: %v", label, err)
	}
	if s.Len() == 0 {
		t.Fatalf("%s: empty schedule", label)
	}
	ref := seio.NewScheduleMsg(inst, s)
	if got.Version != ref.Version || math.Float64bits(got.Utility) != math.Float64bits(ref.Utility) {
		t.Errorf("%s: version %d utility %x, want version %d utility %x",
			label, got.Version, got.Utility, ref.Version, ref.Utility)
	}
	if len(got.Assignments) != len(ref.Assignments) {
		t.Fatalf("%s: %d assignments, want %d", label, len(got.Assignments), len(ref.Assignments))
	}
	for i, a := range got.Assignments {
		r := ref.Assignments[i]
		if a.Event != r.Event || a.Interval != r.Interval || a.EventName != r.EventName || a.AtName != r.AtName ||
			math.Float64bits(a.Expected) != math.Float64bits(r.Expected) {
			t.Errorf("%s: assignment %d = %+v (expected %x), want %+v (expected %x)",
				label, i, a, a.Expected, r, r.Expected)
		}
	}
}

// TestResponsePathsBitIdentical: every response path builds its schedule
// message from the engine that solved it — cold, warm after a PATCH or a
// batch, weighted, costed — and each message must equal, bit for bit,
// seio.NewScheduleMsg on the instance document the server serves at that
// version: plain, weighted and costed solves, an extend, sweep job cells, the
// cold first subscribe push and the warm pushes that follow mutations.
func TestResponsePathsBitIdentical(t *testing.T) {
	sparseDoc, denseDoc := sparseUpload(t, 120, 29)
	muts := []struct {
		path string
		body any
	}{
		{"/instances/x", seio.MutateRequest{
			Interest: []seio.CellUpdate{{User: 3, Index: 0, Value: 0.8}},
			Activity: []seio.CellUpdate{{User: 5, Index: 1, Value: 0.6}}}},
		{"/instances/x/mutations", seio.BatchMutateRequest{Mutations: []seio.MutateRequest{
			{Interest: []seio.CellUpdate{{User: 7, Index: 2, Value: 0.1}}},
			{Activity: []seio.CellUpdate{{User: 2, Index: 0, Value: 0.9}}},
		}}},
	}
	for _, tc := range []struct {
		label string
		doc   []byte
	}{{"dense", denseDoc}, {"sparse", sparseDoc}} {
		for _, workers := range []int{0, 3} {
			t.Run(fmt.Sprintf("%s/w%d", tc.label, workers), func(t *testing.T) {
				srv, ts := newTestServer(t, Config{Workers: 2, Queue: 16, ScoreWorkers: workers})
				c := ts.Client()
				var info seio.InstanceInfo
				do(t, c, "PUT", ts.URL+"/instances/x", tc.doc, http.StatusCreated, &info)
				weights := make([]float64, info.Users)
				for u := range weights {
					weights[u] = 0.5 + float64(u%3)*0.25
				}
				costs := make([]float64, info.Events)
				for e := range costs {
					costs[e] = 0.05 * float64(e+1)
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/instances/x/subscribe?algorithm=HOR-I&k=2", nil)
				if err != nil {
					t.Fatal(err)
				}
				stream, err := c.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer stream.Body.Close()
				sc := bufio.NewScanner(stream.Body)

				for step := 0; step <= len(muts); step++ {
					if step > 0 {
						m := muts[step-1]
						method := "PATCH"
						if m.path != "/instances/x" {
							method = "POST"
						}
						do(t, c, method, ts.URL+m.path, jsonBody(t, m.body), http.StatusOK, nil)
					}
					version := uint64(step + 1)
					ev := readSSE(t, sc)
					var push seio.ResolveEvent
					if err := json.Unmarshal(ev.data, &push); err != nil || ev.name != "resolve" {
						t.Fatalf("step %d: event %q: %v", step, ev.name, err)
					}
					if push.Instance.Version != version || push.Warm != (step > 0) {
						t.Fatalf("step %d: push at version %d warm=%v, want version %d warm=%v",
							step, push.Instance.Version, push.Warm, version, step > 0)
					}

					resp, err := c.Get(ts.URL + "/instances/x")
					if err != nil {
						t.Fatal(err)
					}
					inst, err := seio.ReadInstance(resp.Body)
					resp.Body.Close()
					if err != nil {
						t.Fatal(err)
					}
					label := func(what string) string { return fmt.Sprintf("v%d %s", version, what) }
					sameMsgBits(t, label("push"), inst, push.Schedule)

					var base []seio.AssignmentMsg
					for what, body := range map[string]seio.SolveRequest{
						"solve":          {Algorithm: "HOR-I", K: 3},
						"solve ALG":      {Algorithm: "ALG", K: 3},
						"weighted solve": {Algorithm: "HOR-I", K: 3, UserWeights: weights},
						"costed solve":   {Algorithm: "INC", K: 3, EventCosts: costs},
					} {
						var sr seio.SolveResponse
						do(t, c, "POST", ts.URL+"/instances/x/solve", jsonBody(t, body), http.StatusOK, &sr)
						if sr.Cached || sr.Instance.Version != version {
							t.Fatalf("%s: cached=%v at version %d", label(what), sr.Cached, sr.Instance.Version)
						}
						sameMsgBits(t, label(what), inst, sr.Schedule)
						base = sr.Schedule.Assignments[:1]
					}
					for what, w := range map[string][]float64{"extend": nil, "weighted extend": weights} {
						var ext seio.SolveResponse
						do(t, c, "POST", ts.URL+"/instances/x/extend",
							jsonBody(t, seio.ExtendRequest{Base: base, Extra: 2, UserWeights: w}), http.StatusOK, &ext)
						sameMsgBits(t, label(what), inst, ext.Schedule)
					}

					var st seio.JobStatusMsg
					do(t, c, "POST", ts.URL+"/instances/x/jobs", jsonBody(t, seio.JobRequest{
						Algorithms: []string{"HOR", "HOR-I"}, Ks: []int{4},
					}), http.StatusAccepted, &st)
					st = pollJob(t, c, ts.URL, st.ID, 30*time.Second)
					if st.Status != seio.JobDone || st.Counts.Done != 2 {
						t.Fatalf("%s: job %s counts %+v", label("job"), st.Status, st.Counts)
					}
					for _, cell := range st.Cells {
						if cell.Result == nil || cell.Result.Cached {
							t.Fatalf("%s: cell %s k=%d has no fresh result", label("job"), cell.Algorithm, cell.K)
						}
						sameMsgBits(t, label("job cell "+cell.Algorithm), inst, cell.Result.Schedule)
					}
				}
				if srv.engines.warmBuilds.Load() == 0 {
					t.Error("mutation chain never exercised the warm-rebuild path")
				}
			})
		}
	}
}

// TestCacheSharedAcrossRoutes: every route fills one result cache under one
// key, so a subscribe push (cold, then warm after a PATCH) and a sweep cell
// each answer a later HTTP solve of the same algorithm and k with cached:
// true. The cached body is the filling run's own: a cell's result byte for
// byte, and for a push its schedule and elapsed time over the body a fresh
// solve of the same version returns.
func TestCacheSharedAcrossRoutes(t *testing.T) {
	doc := testInstanceJSON(t, 4, 60, 21)
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 8})
	// ref holds the same versions and answers each query with its own solve.
	_, ref := newTestServer(t, Config{Workers: 2, Queue: 8})
	c := ts.Client()
	for _, base := range []string{ts.URL, ref.URL} {
		do(t, c, "PUT", base+"/instances/x", doc, http.StatusCreated, nil)
	}
	// canon re-encodes a solve response without the named fields, with sorted
	// keys and no indentation.
	canon := func(raw json.RawMessage, drop ...string) string {
		t.Helper()
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		for _, k := range drop {
			delete(m, k)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	solve := func(base, algorithm string, k int, wantCached bool) (json.RawMessage, seio.SolveResponse) {
		t.Helper()
		var raw json.RawMessage
		do(t, c, "POST", base+"/instances/x/solve",
			jsonBody(t, seio.SolveRequest{Algorithm: algorithm, K: k}), http.StatusOK, &raw)
		var sr seio.SolveResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Cached != wantCached {
			t.Fatalf("%s %s k=%d: cached=%v, want %v", base, algorithm, k, sr.Cached, wantCached)
		}
		return raw, sr
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/instances/x/subscribe?algorithm=HOR-I&k=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	sc := bufio.NewScanner(stream.Body)
	for version := uint64(1); version <= 2; version++ {
		if version == 2 {
			mut := jsonBody(t, seio.MutateRequest{Interest: []seio.CellUpdate{{User: 2, Index: 1, Value: 0.7}}})
			for _, base := range []string{ts.URL, ref.URL} {
				do(t, c, "PATCH", base+"/instances/x", mut, http.StatusOK, nil)
			}
		}
		var push seio.ResolveEvent
		if ev := readSSE(t, sc); ev.name != "resolve" || json.Unmarshal(ev.data, &push) != nil {
			t.Fatalf("v%d: bad push %q %s", version, ev.name, ev.data)
		}
		if push.Instance.Version != version || push.Warm != (version > 1) {
			t.Fatalf("push at version %d warm=%v, want version %d", push.Instance.Version, push.Warm, version)
		}
		got, sr := solve(ts.URL, "HOR-I", 3, true)
		if sr.ElapsedMS != push.ElapsedMS || !bytes.Equal(jsonBody(t, sr.Schedule), jsonBody(t, push.Schedule)) {
			t.Errorf("v%d: cached solve is not the push's result", version)
		}
		fresh, _ := solve(ref.URL, "HOR-I", 3, false)
		if g, w := canon(got, "cached", "trace_id", "elapsed_ms"), canon(fresh, "cached", "trace_id", "elapsed_ms"); g != w {
			t.Errorf("v%d: push-filled solve body\n%s\nwant\n%s", version, g, w)
		}
	}

	var st struct {
		Status string `json:"status"`
		Cells  []struct {
			Result json.RawMessage `json:"result"`
		} `json:"cells"`
	}
	var sub seio.JobStatusMsg
	do(t, c, "POST", ts.URL+"/instances/x/jobs",
		jsonBody(t, seio.JobRequest{Algorithms: []string{"ALG"}, Ks: []int{2}}), http.StatusAccepted, &sub)
	pollJob(t, c, ts.URL, sub.ID, 30*time.Second)
	do(t, c, "GET", ts.URL+"/jobs/"+sub.ID, nil, http.StatusOK, &st)
	if st.Status != seio.JobDone || len(st.Cells) != 1 || st.Cells[0].Result == nil {
		t.Fatalf("sweep did not finish with one result: %+v", st)
	}
	got, _ := solve(ts.URL, "ALG", 2, true)
	if g, w := canon(got, "cached", "trace_id"), canon(st.Cells[0].Result, "cached", "trace_id"); g != w {
		t.Errorf("cell-filled solve body\n%s\nwant\n%s", g, w)
	}
}

// TestSummarizeEvaluatesOnce: POST /summarize evaluates the schedule once and
// renders its text from that evaluation, so Text and Schedule agree; the body
// is byte-identical to the response assembled from an independent cold
// evaluation, the way the handler built it with one scorer per field.
func TestSummarizeEvaluatesOnce(t *testing.T) {
	sparseDoc, denseDoc := sparseUpload(t, 90, 31)
	for label, doc := range map[string][]byte{"dense": denseDoc, "sparse": sparseDoc} {
		t.Run(label, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: 2, Queue: 8})
			c := ts.Client()
			var info seio.InstanceInfo
			do(t, c, "PUT", ts.URL+"/instances/x", doc, http.StatusCreated, &info)
			var sr seio.SolveResponse
			do(t, c, "POST", ts.URL+"/instances/x/solve", jsonBody(t, seio.SolveRequest{K: 3}), http.StatusOK, &sr)
			resp, err := c.Post(ts.URL+"/instances/x/summarize", "application/json",
				bytes.NewReader(jsonBody(t, seio.SummarizeRequest{Schedule: sr.Schedule.Assignments})))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("summarize: status %d: %v", resp.StatusCode, err)
			}
			var sum seio.SummarizeResponse
			if err := json.Unmarshal(got, &sum); err != nil {
				t.Fatal(err)
			}
			if text := ses.NewReport(sum.Schedule).String(); sum.Text != text {
				t.Errorf("text disagrees with the schedule:\n%s\nwant\n%s", sum.Text, text)
			}

			inst, err := seio.ReadInstance(bytes.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			s, err := sr.Schedule.Replay(inst)
			if err != nil {
				t.Fatal(err)
			}
			sc := core.NewScorer(inst)
			want := seio.SummarizeResponse{
				Instance: info,
				Schedule: seio.ScheduleMsg{Version: seio.FormatVersion, Utility: sc.Utility(s)},
			}
			rep := ses.Report{Utility: sc.Utility(s)}
			for _, a := range s.Assignments() {
				am := seio.AssignmentMsg{
					Event:     a.Event,
					EventName: inst.Events[a.Event].Name,
					Interval:  a.Interval,
					AtName:    inst.Intervals[a.Interval].Name,
					Expected:  sc.EventAttendance(s, a.Event),
				}
				want.Schedule.Assignments = append(want.Schedule.Assignments, am)
				rep.Events = append(rep.Events, ses.EventReport{
					Event: am.Event, Name: am.EventName, Interval: am.Interval, At: am.AtName, Expected: am.Expected,
				})
			}
			want.Text = rep.String()
			rec := httptest.NewRecorder()
			writeJSON(rec, http.StatusOK, want)
			if !bytes.Equal(got, rec.Body.Bytes()) {
				t.Errorf("summarize body differs from the cold evaluation:\n%s\nwant\n%s", got, rec.Body.Bytes())
			}
		})
	}
}

// TestScheduleMsgAllocations: building a response from a warm engine's scorer
// on a 20k-user sparse instance allocates less than one |U|-long float64
// slice — no competing sums, shard offsets or utility buffers are rebuilt —
// while the cold seio.NewScheduleMsg it replaces allocates more than that.
func TestScheduleMsgAllocations(t *testing.T) {
	const users = 20000
	cfg := dataset.DefaultConfig(4, users, dataset.Uniform, 37)
	cfg.Density = 0.05
	cfg.Rep = core.RepSparse
	inst, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := score.New(inst, core.ScorerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	next := inst.Snapshot()
	next.SetInterest(11, 1, 0.7)
	en, err := score.NewFromPrevious(cold, next, core.ScorerOptions{}, core.ScorerDelta{Events: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	defer en.Close()
	sched, err := algo.NewWithEngine("HOR-I", 0, en)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.ScheduleCtx(context.Background(), next, 4)
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(build func() seio.ScheduleMsg) (uint64, seio.ScheduleMsg) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		msg := build()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc, msg
	}
	warmBytes, msg := allocated(func() seio.ScheduleMsg { return scheduleMsg(en, res) })
	coldBytes, ref := allocated(func() seio.ScheduleMsg { return seio.NewScheduleMsg(next, res.Schedule) })
	sameMsgBits(t, "warm engine message", next, msg)
	if math.Float64bits(msg.Utility) != math.Float64bits(ref.Utility) {
		t.Fatalf("utility %x, cold %x", msg.Utility, ref.Utility)
	}
	t.Logf("message from the warm engine: %d B; cold NewScheduleMsg: %d B", warmBytes, coldBytes)
	if limit := uint64(users * 8); warmBytes >= limit {
		t.Errorf("message from the warm engine allocated %d B, want < %d B (|U|×8)", warmBytes, limit)
	}
	if coldBytes < uint64(users*8) {
		t.Errorf("cold NewScheduleMsg allocated only %d B; the guard cannot tell the two apart", coldBytes)
	}
}

// TestWarmPushAllocations: a warm sparse HOR-I subscribe push through the one
// solve path allocates less than one |U|·|T| float64 interest-sum set. Each
// push releases its schedule once the message is built, and the warm engine
// inherits its predecessor's free list, so the next push's schedule draws
// its sums from there instead of allocating them, while k = |T| gives every
// interval a sum. Two forced GCs between pushes check that nothing the GC
// may empty holds the sums.
func TestWarmPushAllocations(t *testing.T) {
	const users = 20000
	cfg := dataset.DefaultConfig(8, users, dataset.Uniform, 41)
	cfg.Density = 0.05
	cfg.Rep = core.RepSparse
	inst, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var doc bytes.Buffer
	if err := seio.WriteInstance(&doc, inst); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/w", doc.Bytes(), http.StatusCreated, nil)
	k := inst.NumIntervals()
	push := func() (uint64, bool) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp, warm, err := s.resolveCurrent(context.Background(), "w", "HOR-I", k, 0)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Schedule.Assignments) != k {
			t.Fatalf("push scheduled %d events, want %d", len(resp.Schedule.Assignments), k)
		}
		return after.TotalAlloc - before.TotalAlloc, warm
	}
	mutate := func(i int) {
		do(t, c, "PATCH", ts.URL+"/instances/w", jsonBody(t, seio.MutateRequest{
			Interest: []seio.CellUpdate{{User: 97 * i, Index: i % inst.NumEvents(), Value: 0.6}},
		}), http.StatusOK, nil)
	}
	push() // cold: builds the engine
	mutate(1)
	push() // warm; its sums may be fresh
	mutate(2)
	runtime.GC()
	runtime.GC()
	got, warm := push()
	if !warm {
		t.Fatal("push after a PATCH was not warm")
	}
	limit := uint64(users * k * 8)
	t.Logf("warm push allocated %d B; one sum set is %d B", got, limit)
	if got >= limit {
		t.Errorf("warm push allocated %d B, want < %d B (|U|×|T|×8)", got, limit)
	}
}
