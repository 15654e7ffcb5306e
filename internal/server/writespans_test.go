package server

import (
	"bytes"
	"net/http"
	"testing"

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
