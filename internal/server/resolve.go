package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/metrics/span"
	"repro/internal/seio"
)

// mutationDelta maps an applied MutateRequest to the scorer-level dirty set
// used by the engine cache's warm-rebuild path:
//
//   - an interest edit dirties exactly that event's column: its memoized
//     scores, and every memo prefix that contains it;
//   - a competing-interest edit or a new competing event dirties the
//     competition sum of the interval the competing event occupies;
//   - an activity edit dirties that interval's weighted-activity column (and
//     its memo rows: every score at the interval reads activity).
//
// inst must be a snapshot at or after the mutated version: competing indexes
// only ever append and an existing competing event's interval is immutable,
// so any later snapshot maps indexes identically. Out-of-range indexes
// (impossible for an applied request) are skipped rather than invented.
func mutationDelta(inst *core.Instance, req seio.MutateRequest) core.ScorerDelta {
	var d core.ScorerDelta
	for _, cu := range req.Interest {
		if cu.Index >= 0 && cu.Index < len(inst.Events) {
			d.Events = append(d.Events, cu.Index)
		}
	}
	for _, cu := range req.CompetingInterest {
		if cu.Index >= 0 && cu.Index < len(inst.Competing) {
			d.CompIntervals = append(d.CompIntervals, inst.Competing[cu.Index].Interval)
		}
	}
	for _, cu := range req.Activity {
		if cu.Index >= 0 && cu.Index < inst.NumIntervals() {
			d.ActIntervals = append(d.ActIntervals, cu.Index)
		}
	}
	for _, nc := range req.AddCompeting {
		if nc.Interval >= 0 && nc.Interval < inst.NumIntervals() {
			d.CompIntervals = append(d.CompIntervals, nc.Interval)
		}
	}
	// Merge with the empty delta to sort and dedupe in one place.
	return core.ScorerDelta{}.Merge(d)
}

// afterMutation is the single post-PATCH bookkeeping path: the result cache
// drops the name's entries (results are version-exact), and the engine cache
// RETIRES them instead — each live engine accumulates the mutation's dirty
// set and stays available to warm-start the new version's first solve. reqs
// are the mutations applied as this one version bump (one for PATCH, many
// for the batch endpoint).
func (s *Server) afterMutation(name string, info seio.InstanceInfo, reqs ...seio.MutateRequest) {
	s.cache.InvalidateInstance(name)
	inst, _, err := s.store.Get(name)
	if err != nil {
		// Deleted between Mutate and here: nothing left to warm.
		s.engines.invalidate(name)
		return
	}
	var d core.ScorerDelta
	for _, r := range reqs {
		d = d.Merge(mutationDelta(inst, r))
	}
	s.engines.retire(name, info.Version, d)
	s.notifyMutation(name)
}

// notifyMutation wakes the name's subscribers (see subscribe.go). Split out
// so afterMutation stays testable without a running hub.
func (s *Server) notifyMutation(name string) {
	if s.subs != nil {
		s.subs.notify(name)
	}
}

// handleMutateBatch applies a list of mutation deltas as ONE store version
// (and one WAL record) — the streaming producer's unit of ingestion:
//
//	POST /instances/{name}/mutations  {"mutations": [...]}
//
// The batch is flattened before application (see BatchMutateRequest.Merge for
// the in-batch ordering semantics), so it applies atomically: any invalid
// cell rejects the whole batch and the version does not move.
func (s *Server) handleMutateBatch(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	tr := span.FromContext(r.Context())
	sp := tr.Start("decode")
	var req seio.BatchMutateRequest
	err := s.decodeBody(w, r, &req)
	sp.End()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if req.Empty() {
		writeErr(w, http.StatusBadRequest, errors.New("empty batch: nothing to apply"))
		return
	}
	applied := 0
	for _, m := range req.Mutations {
		if !m.Empty() {
			applied++
		}
	}
	merged := req.Merge()
	info, err := s.store.Mutate(name, merged, tr)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	s.mutationBatches.Add(1)
	sp = tr.Start("retire")
	s.afterMutation(name, info, merged)
	sp.End()
	sp = tr.Start("encode")
	writeJSON(w, http.StatusOK, seio.BatchMutateResponse{Instance: info, Applied: applied})
	sp.End()
}

// resolveCurrent solves the instance's CURRENT version for a subscribe push:
// result-cache fast path first, then the pooled solve on the engine-cache's
// engine for that version — a warm delta rebuild when the preceding mutation
// retired one. The bool reports whether the answer reused prior state (cache
// hit, engine hit, or warm rebuild) versus a cold build. Output and counters
// are bit-identical to a cold solve either way; only the latency differs,
// which is what sesd_resolve_duration_seconds measures.
func (s *Server) resolveCurrent(ctx context.Context, name, algorithm string, k int, seed uint64) (seio.SolveResponse, bool, error) {
	inst, info, err := s.store.Get(name)
	if err != nil {
		return seio.SolveResponse{}, false, err
	}
	q := newSolveRun(name, inst, info, algorithm, k, seed, core.ScorerOptions{})
	if resp, ok := s.cached(q); ok {
		return resp, true, nil
	}
	// Subscribe pushes run outside any HTTP request trace (the SSE request's
	// own trace ended at connect), so each actual re-solve mints its own root.
	// Minted after the cache check: trivial hits would only bury real solves
	// in the ring.
	tr := span.NewRoot("resolve")
	tr.Annotate("instance", name)
	tr.Annotate("algorithm", algorithm)
	tr.Annotate("k", strconv.Itoa(k))
	defer s.recordTrace(tr)
	ctx = span.NewContext(ctx, tr)
	var (
		resp seio.SolveResponse
		warm bool
	)
	start := time.Now()
	// SubmitWait, not Submit: the subscribe loop owns a goroutine and wants
	// the queue's backpressure to pace its re-solves, not fail them.
	if err := runOnPool(ctx, s.pool.SubmitWait, func() (err error) {
		resp, warm, err = s.solve(ctx, q)
		return err
	}); err != nil {
		return seio.SolveResponse{}, false, err
	}
	s.resolveSolves.Add(1)
	if warm {
		s.resolveWarm.Add(1)
	} else {
		s.resolveFallback.Add(1)
	}
	s.resolveDuration.ObserveSince(start)
	return resp, warm, nil
}

// handleSubscribe streams schedule updates for an instance as Server-Sent
// Events:
//
//	GET /instances/{name}/subscribe?algorithm=HOR-I&k=5[&seed=n]
//
// On connect the current version is solved (or served from the result cache)
// and pushed as the first "resolve" event; afterwards every mutation —
// PATCH, batch POST, or replacement PUT is not included (replacement
// invalidates rather than retires) — triggers a re-solve of the then-current
// version and a push carrying the full schedule plus its delta against the
// previous push. Bursts coalesce: a subscriber mid-solve when several
// mutations land re-solves once, at the latest version.
func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	q := r.URL.Query()
	algorithm := q.Get("algorithm")
	if algorithm == "" {
		algorithm = "HOR-I"
	}
	if _, err := algo.New(algorithm, 0); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	k, err := strconv.Atoi(q.Get("k"))
	if err != nil || k <= 0 {
		writeErr(w, http.StatusBadRequest, algo.ErrBadK)
		return
	}
	var seed uint64
	if v := q.Get("seed"); v != "" {
		if seed, err = strconv.ParseUint(v, 10, 64); err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad seed: %w", err))
			return
		}
	}
	if _, _, err := s.store.Get(name); err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("streaming unsupported by this connection"))
		return
	}
	// Register BEFORE the initial solve: a mutation landing between the two
	// sets the dirty bit and the loop below re-solves — nothing is missed.
	sub, cancel := s.subs.add(name)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	var prev []seio.AssignmentMsg
	push := func() bool {
		resp, warm, err := s.resolveCurrent(r.Context(), name, algorithm, k, seed)
		if err != nil {
			// Instance deleted, pool shut down, or client gone: say why if
			// the pipe still works, then end the stream.
			writeSSE(w, fl, "error", seio.ErrorResponse{Error: err.Error()})
			return false
		}
		ev := seio.ResolveEvent{
			Instance:  resp.Instance,
			Algorithm: algorithm,
			K:         k,
			Schedule:  resp.Schedule,
			Warm:      warm,
			ElapsedMS: resp.ElapsedMS,
		}
		ev.Added, ev.Removed, ev.Moved = seio.DiffSchedules(prev, resp.Schedule.Assignments)
		prev = resp.Schedule.Assignments
		if !writeSSE(w, fl, "resolve", ev) {
			return false
		}
		s.resolvePushes.Add(1)
		return true
	}
	if !push() {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-sub.dirty:
			if !push() {
				return
			}
		}
	}
}

// writeSSE writes one named SSE event with a JSON data line and flushes it.
func writeSSE(w http.ResponseWriter, fl http.Flusher, event string, v any) bool {
	data, err := json.Marshal(v)
	if err != nil {
		return false
	}
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return false
	}
	fl.Flush()
	return true
}
