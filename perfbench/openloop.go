package main

import (
	"context"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"sync"
	"time"

	"repro/internal/metrics/span"
	"repro/internal/seio"
)

// request is one HTTP request of an open-loop stream.
type request struct {
	kind   string // solve, extend, patch or batch
	method string
	path   string
	body   []byte
}

// isWrite reports whether the request changes the instance.
func (r request) isWrite() bool { return r.kind == "patch" || r.kind == "batch" }

// mixWeights is sesload's default mix, solve=8,extend=1,patch=1,batch=1.
var mixWeights = []struct {
	kind   string
	weight int
}{{"solve", 8}, {"extend", 1}, {"patch", 1}, {"batch", 1}}

// mixShape is what the request generator needs to know about the instance.
type mixShape struct {
	name                     string
	users, events, intervals int
	k                        int
}

// mixRequests draws n requests of the mix from rng: the kind of each, and
// the cells and values the writes set.
func mixRequests(rng *rand.Rand, sh mixShape, n int) []request {
	total := 0
	for _, w := range mixWeights {
		total += w.weight
	}
	reqs := make([]request, 0, n)
	for len(reqs) < n {
		pick := rng.IntN(total)
		for _, w := range mixWeights {
			if pick -= w.weight; pick < 0 {
				reqs = append(reqs, mixRequest(w.kind, sh, rng))
				break
			}
		}
	}
	return reqs
}

// mixRequest builds one request of the given kind; writes draw their cells
// and values from rng.
func mixRequest(kind string, sh mixShape, rng *rand.Rand) request {
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			panic(err) // wire structs always marshal
		}
		return b
	}
	cell := func(max int) seio.CellUpdate {
		return seio.CellUpdate{User: rng.IntN(sh.users), Index: rng.IntN(max), Value: rng.Float64()}
	}
	inst := "/instances/" + sh.name
	switch kind {
	case "solve":
		return request{kind, http.MethodPost, inst + "/solve", marshal(seio.SolveRequest{Algorithm: "HOR-I", K: sh.k})}
	case "extend":
		return request{kind, http.MethodPost, inst + "/extend", marshal(seio.ExtendRequest{Extra: sh.k})}
	case "patch":
		return request{kind, http.MethodPatch, inst, marshal(seio.MutateRequest{Interest: []seio.CellUpdate{cell(sh.events)}})}
	case "batch":
		return request{kind, http.MethodPost, inst + "/mutations", marshal(seio.BatchMutateRequest{Mutations: []seio.MutateRequest{
			{Interest: []seio.CellUpdate{cell(sh.events), cell(sh.events)}},
			{Activity: []seio.CellUpdate{cell(sh.intervals)}},
		}})}
	}
	panic("perfbench: unknown request kind " + kind)
}

// sample is one request as the open loop saw it.
type sample struct {
	due, sent, done time.Time
	status          int
	body            []byte
	err             error
	// trace is the client span of the request in a traced run; the server's
	// trace of the request carries the same trace ID.
	trace *span.Trace
}

// openLoop offers reqs at a fixed rate regardless of completions: request i
// is due at start + i/rate. A generator goroutine releases each request at
// its due time to conns client goroutines with one connection each; a
// request that finds every connection busy waits, and that wait counts in
// its latency, which runs from due time to completion. lags are how late the
// generator released each request, in ms.
func openLoop(ctx context.Context, base string, reqs []request, rate float64, conns int, traced bool) (samples []sample, lags []float64, start time.Time) {
	samples = make([]sample, len(reqs))
	lags = make([]float64, len(reqs))
	// Sized to the number of sends, so the generator never blocks on busy
	// clients and stays on schedule.
	ready := make(chan int, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for i := range ready {
				s, r := &samples[i], reqs[i]
				var tp string
				if traced {
					s.trace = span.NewRoot("http." + r.kind)
					s.trace.Annotate("wait_for_connection_ms", formatMS(time.Since(s.due)))
					tp = s.trace.Traceparent()
				}
				s.sent = time.Now()
				s.status, s.body, s.err = do(ctx, c, r.method, base+r.path, r.body, tp)
				s.done = time.Now()
				s.trace.Finish()
			}
		}()
	}
	interval := time.Duration(float64(time.Second) / rate)
	start = time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		samples[i].due = due
		lags[i] = ms(time.Since(due))
		ready <- i
	}
	close(ready)
	wg.Wait()
	return samples, lags, start
}
