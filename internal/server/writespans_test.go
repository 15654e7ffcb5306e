package server

import (
	"bufio"
	"bytes"
	"context"
	"net/http"
	"slices"
	"testing"
	"time"

	"repro/internal/metrics/span"
	"repro/internal/seio"
)

// writeStages are the direct children every traced write records, in order.
var writeStages = []string{"decode", "apply", "digest", "wal_append", "publish", "retire", "encode"}

// TestWriteTraceStages: a traced PATCH and a traced mutations batch each
// record the write stages as direct children of the root, in order, each
// starting after the previous one ended and all within the root.
func TestWriteTraceStages(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 8, DataDir: t.TempDir()})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/w", testInstanceJSON(t, 3, 40, 5), http.StatusCreated, nil)
	for _, tc := range []struct {
		route, method, path string
		body                any
	}{
		{"mutate_instance", "PATCH", "/instances/w",
			seio.MutateRequest{Interest: []seio.CellUpdate{{User: 1, Index: 0, Value: 0.5}}}},
		{"mutate_batch", "POST", "/instances/w/mutations",
			seio.BatchMutateRequest{Mutations: []seio.MutateRequest{
				{Interest: []seio.CellUpdate{{User: 2, Index: 1, Value: 0.25}}},
				{Activity: []seio.CellUpdate{{User: 3, Index: 0, Value: 0.75}}},
			}}},
	} {
		header, traceID := span.MintTraceparent()
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, bytes.NewReader(jsonBody(t, tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", header)
		resp, err := c.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", tc.route, resp.StatusCode)
		}
		var td span.TraceData
		do(t, c, "GET", ts.URL+"/debug/traces/"+traceID, nil, http.StatusOK, &td)
		if td.Route != tc.route {
			t.Fatalf("trace route %q, want %q", td.Route, tc.route)
		}
		kids := td.Root.Children
		if len(kids) != len(writeStages) {
			t.Fatalf("%s: %d children %v, want %v", tc.route, len(kids), names(kids), writeStages)
		}
		const eps = 1e-6 // ms; float rounding of the rendered offsets
		end, covered := 0.0, 0.0
		for i, k := range kids {
			if k.Name != writeStages[i] {
				t.Fatalf("%s: children %v, want %v", tc.route, names(kids), writeStages)
			}
			if k.Count != 0 {
				t.Errorf("%s: %s is an aggregate span, want a timed one", tc.route, k.Name)
			}
			if k.StartMS+eps < end {
				t.Errorf("%s: %s starts at %.6f ms, before the previous stage ended at %.6f ms", tc.route, k.Name, k.StartMS, end)
			}
			end = k.StartMS + k.DurationMS
			covered += k.DurationMS
		}
		if end > td.DurationMS+eps {
			t.Errorf("%s: stages end at %.6f ms, after the root's %.6f ms", tc.route, end, td.DurationMS)
		}
		t.Logf("%s: stages cover %.1f%% of the %.3f ms root", tc.route, 100*covered/td.DurationMS, td.DurationMS)
	}
}

func names(spans []span.SpanData) []string {
	out := make([]string, len(spans))
	for i, s := range spans {
		out[i] = s.Name
	}
	return out
}

// pushStages are the direct children of a subscribe push's resolve trace, in
// order; score, evaluate and select are aggregates, the rest timed spans.
var pushStages = []string{"queue", "engine_acquire", "score", "evaluate", "select", "encode", "release", "wal_append"}

// TestResolveTraceStages: the cold first subscribe push and the warm push
// after a PATCH each store a resolve trace whose direct children are the push
// stages, the timed ones in order and within the root.
func TestResolveTraceStages(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 8, DataDir: t.TempDir()})
	c := ts.Client()
	do(t, c, "PUT", ts.URL+"/instances/p", testInstanceJSON(t, 4, 60, 9), http.StatusCreated, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+"/instances/p/subscribe?algorithm=HOR-I&k=3", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	readSSE(t, sc)
	do(t, c, "PATCH", ts.URL+"/instances/p",
		jsonBody(t, seio.MutateRequest{Interest: []seio.CellUpdate{{User: 1, Index: 0, Value: 0.5}}}), http.StatusOK, nil)
	readSSE(t, sc)

	// The push's trace is stored before its event is written, so both are in
	// the ring by now.
	var list TraceListResponse
	do(t, c, "GET", ts.URL+"/debug/traces?route=resolve", nil, http.StatusOK, &list)
	if len(list.Traces) != 2 {
		t.Fatalf("%d resolve traces, want 2", len(list.Traces))
	}
	for _, sum := range list.Traces {
		var td span.TraceData
		do(t, c, "GET", ts.URL+"/debug/traces/"+sum.TraceID, nil, http.StatusOK, &td)
		kids := td.Root.Children
		if got := names(kids); !slices.Equal(got, pushStages) {
			t.Fatalf("resolve children %v, want %v", got, pushStages)
		}
		const eps = 1e-6 // ms
		end, covered := 0.0, 0.0
		for _, k := range kids {
			covered += k.DurationMS
			if aggregate := k.Name == "score" || k.Name == "evaluate" || k.Name == "select"; aggregate != (k.Count > 0) {
				t.Errorf("%s: count %d, aggregate=%v", k.Name, k.Count, aggregate)
			}
			if k.Count > 0 {
				continue
			}
			if k.StartMS+eps < end {
				t.Errorf("%s starts at %.6f ms, before the previous timed stage ended at %.6f ms", k.Name, k.StartMS, end)
			}
			end = k.StartMS + k.DurationMS
		}
		if end > td.DurationMS+eps {
			t.Errorf("stages end at %.6f ms, after the root's %.6f ms", end, td.DurationMS)
		}
		t.Logf("resolve (engine %s): stages cover %.1f%% of the %.3f ms root",
			kids[1].Attrs["engine"], 100*covered/td.DurationMS, td.DurationMS)
	}

	// A sweep cell records the same stages minus the queue, which its job
	// waits in before the cell's trace starts.
	var st seio.JobStatusMsg
	do(t, c, "POST", ts.URL+"/instances/p/jobs",
		jsonBody(t, seio.JobRequest{Algorithms: []string{"ALG"}, Ks: []int{2}}), http.StatusAccepted, &st)
	pollJob(t, c, ts.URL, st.ID, 30*time.Second)
	do(t, c, "GET", ts.URL+"/debug/traces?route=job_cell", nil, http.StatusOK, &list)
	if len(list.Traces) != 1 {
		t.Fatalf("%d job_cell traces, want 1", len(list.Traces))
	}
	var td span.TraceData
	do(t, c, "GET", ts.URL+"/debug/traces/"+list.Traces[0].TraceID, nil, http.StatusOK, &td)
	if got := names(td.Root.Children); !slices.Equal(got, pushStages[1:]) {
		t.Fatalf("job_cell children %v, want %v", got, pushStages[1:])
	}
}
