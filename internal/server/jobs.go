package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/metrics/span"
	"repro/internal/seio"
)

// ErrJobNotFound is returned for operations on unknown (or expired) job IDs.
var ErrJobNotFound = errors.New("server: job not found")

// jobCell is one sweep cell: algorithm × k against the job's pinned
// snapshot. Its state is guarded by the owning Job's mutex.
type jobCell struct {
	algorithm string
	k         int

	state  string // seio.CellQueued → CellRunning → CellDone/CellFailed/CellCancelled
	errMsg string
	resp   seio.SolveResponse // valid when state == CellDone
}

// Job is one submitted sweep. The instance snapshot and version are pinned
// at submit time; mutations published afterwards are invisible to the job,
// which is what makes its cells bitwise-identical to synchronous solves of
// the same version.
type Job struct {
	id   string
	seq  uint64 // numeric ID sequence value, logged for recovery
	name string
	inst *core.Instance
	info seio.InstanceInfo
	seed uint64
	opts core.ScorerOptions

	ctx    context.Context
	cancel context.CancelFunc

	js *Jobs

	mu        sync.Mutex
	cells     []*jobCell
	cancelled bool // cancellation requested (DELETE or shutdown)
	created   time.Time
	finished  time.Time // zero until every cell is terminal
}

// begin moves a queued cell to running. It reports false when the cell is no
// longer queued (a cancellation sweep claimed it first).
func (j *Job) begin(c *jobCell) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if c.state != seio.CellQueued {
		return false
	}
	c.state = seio.CellRunning
	return true
}

// finishCell moves a running cell to a terminal state. A cell that already
// reached a terminal state is left untouched — in particular a done cell can
// never be demoted to cancelled.
func (j *Job) finishCell(c *jobCell, state string, resp seio.SolveResponse, err error) {
	j.mu.Lock()
	if c.state != seio.CellRunning {
		j.mu.Unlock()
		return
	}
	c.state = state
	c.resp = resp
	if err != nil {
		c.errMsg = err.Error()
	}
	j.js.countCell(state)
	finished := j.maybeFinishLocked()
	j.mu.Unlock()
	if finished {
		j.js.notifyFinished(j)
	}
}

// cancelQueued sweeps every still-queued cell to cancelled. Running cells
// are untouched: their ScheduleCtx observes the cancelled context and
// finishes through finishCell. from bounds the sweep for dispatchers that
// know a prefix was already handed to the pool.
func (j *Job) cancelQueued(from int) {
	j.mu.Lock()
	for _, c := range j.cells[from:] {
		if c.state == seio.CellQueued {
			c.state = seio.CellCancelled
			c.errMsg = context.Canceled.Error()
			j.js.countCell(seio.CellCancelled)
		}
	}
	finished := j.maybeFinishLocked()
	j.mu.Unlock()
	if finished {
		j.js.notifyFinished(j)
	}
}

// maybeFinishLocked records the job's completion time once no cell is
// queued or running, reporting whether this call made the transition (the
// caller then fires the finish notification outside j.mu). Callers hold j.mu.
func (j *Job) maybeFinishLocked() bool {
	if !j.finished.IsZero() {
		return false
	}
	for _, c := range j.cells {
		if c.state == seio.CellQueued || c.state == seio.CellRunning {
			return false
		}
	}
	j.finished = time.Now()
	j.js.finished.Add(1)
	// Release the job's context resources; every cell is terminal, so
	// nothing observes the cancellation.
	j.cancel()
	return true
}

// status snapshots the job as a wire message; includeCells selects the full
// per-cell view (GET /jobs/{id}) over the listing summary.
func (j *Job) status(includeCells bool) seio.JobStatusMsg {
	j.mu.Lock()
	defer j.mu.Unlock()
	msg := seio.JobStatusMsg{ID: j.id, Instance: j.info}
	for _, c := range j.cells {
		switch c.state {
		case seio.CellQueued:
			msg.Counts.Queued++
		case seio.CellRunning:
			msg.Counts.Running++
		case seio.CellDone:
			msg.Counts.Done++
		case seio.CellFailed:
			msg.Counts.Failed++
		case seio.CellCancelled:
			msg.Counts.Cancelled++
		}
		if includeCells {
			cm := seio.JobCellMsg{Algorithm: c.algorithm, K: c.k, State: c.state, Error: c.errMsg}
			if c.state == seio.CellDone {
				resp := c.resp
				cm.Result = &resp
			}
			msg.Cells = append(msg.Cells, cm)
		}
	}
	switch {
	case msg.Counts.Active() > 0:
		msg.Status = seio.JobRunning
	case j.cancelled || msg.Counts.Cancelled > 0:
		msg.Status = seio.JobCancelled
	default:
		msg.Status = seio.JobDone
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	msg.ElapsedMS = seio.DurationMS(end.Sub(j.created))
	return msg
}

// Jobs is the async job store: submitted sweeps by ID, with TTL-based
// retention of finished jobs. Retention is enforced lazily on every submit,
// lookup and listing, so the store needs no janitor goroutine.
type Jobs struct {
	ttl time.Duration

	// onFinish, when set (before traffic), is called once per job — on the
	// goroutine that retired its last cell, outside any lock — the moment
	// the job reaches a terminal state. The persistence layer hooks it to
	// log the finished job.
	onFinish func(*Job)

	mu   sync.Mutex
	m    map[string]*Job
	seq  uint64
	done bool // Close was called; no new jobs
	// expired collects, during boot replay only, job IDs whose terminal
	// record had already outlived the TTL: their submit-form records (which
	// carry no timestamp and replay in either order relative to the
	// snapshot) must not resurrect them.
	expired map[string]struct{}

	wg sync.WaitGroup // job dispatcher goroutines

	submitted      atomic.Int64
	finished       atomic.Int64
	cancelRequests atomic.Int64
	cellsDone      atomic.Int64
	cellsFailed    atomic.Int64
	cellsCancelled atomic.Int64
}

// NewJobs returns an empty job store retaining finished jobs for ttl.
func NewJobs(ttl time.Duration) *Jobs {
	return &Jobs{ttl: ttl, m: make(map[string]*Job)}
}

func (js *Jobs) countCell(state string) {
	switch state {
	case seio.CellDone:
		js.cellsDone.Add(1)
	case seio.CellFailed:
		js.cellsFailed.Add(1)
	case seio.CellCancelled:
		js.cellsCancelled.Add(1)
	}
}

// purgeLocked drops finished jobs older than the TTL. Callers hold js.mu.
func (js *Jobs) purgeLocked(now time.Time) {
	for id, j := range js.m {
		j.mu.Lock()
		expired := !j.finished.IsZero() && now.Sub(j.finished) > js.ttl
		j.mu.Unlock()
		if expired {
			delete(js.m, id)
		}
	}
}

// add registers a new job and returns it, or an error after Close. The
// dispatcher's WaitGroup slot is reserved here, under the same lock that
// Close uses to flip done — reserving it later (in startJob) would race
// with Close's Wait and let a dispatcher goroutine escape shutdown.
func (js *Jobs) add(j *Job) error {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.done {
		return ErrPoolClosed
	}
	js.purgeLocked(time.Now())
	js.seq++
	j.seq = js.seq
	j.id = fmt.Sprintf("job-%d", js.seq)
	js.m[j.id] = j
	js.submitted.Add(1)
	js.wg.Add(1)
	return nil
}

// notifyFinished fires the finish hook; called outside all locks.
func (js *Jobs) notifyFinished(j *Job) {
	if js.onFinish != nil {
		js.onFinish(j)
	}
}

// abortUnstarted unregisters a job whose dispatcher never launched (the
// submit-time WAL append failed), releasing the WaitGroup slot add reserved
// for it and rolling back the submission counter — the job never existed as
// far as clients or the metrics are concerned. The consumed ID sequence value is
// simply skipped. (A compaction racing this window can still capture the
// job, so a later crash may recover it as a cancelled entry under an ID no
// client holds — the same harmless ghost any crash between a WAL append and
// its HTTP response can leave, for instances as much as jobs.)
func (js *Jobs) abortUnstarted(id string) {
	js.mu.Lock()
	delete(js.m, id)
	js.mu.Unlock()
	js.submitted.Add(-1)
	js.wg.Done()
}

// restoreSeq advances the ID sequence to at least seq (snapshot meta replay),
// so post-recovery submissions can never collide with logged job IDs.
func (js *Jobs) restoreSeq(seq uint64) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.seq < seq {
		js.seq = seq
	}
}

// restore re-installs a logged job. Jobs are logged twice: at submit (their
// ID sequence value must survive a crash mid-run, or a post-restart
// submission would reuse a live client's job ID) and at finish (the terminal
// status with cells, results, elapsed time and finish wall-time). A
// submit-record job whose finish was never logged recovers as cancelled —
// the crash stopped it — and stays pollable under its original ID. Terminal
// records take precedence: they overwrite a submit-record restoration (log
// order puts them later), while a submit record never downgrades an
// already-restored terminal job (the snapshot may hold the finished form of
// a job whose submit record still sits in the replayed segment).
//
// Retention honors the original finish wall-time when the record carries
// one: a job the live server already purged must not resurrect after a
// crash, and a retained one keeps its remaining TTL instead of a fresh one.
// Records without a timestamp (crash-cancelled submit forms) count their TTL
// from recovery — the crash is when they effectively finished.
func (js *Jobs) restore(seq uint64, msg seio.JobStatusMsg, finishedAtMS int64) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if js.seq < seq {
		js.seq = seq
	}
	if msg.Status == seio.JobRunning {
		if _, ok := js.m[msg.ID]; ok {
			return // submit record for a job the snapshot already finished
		}
		if _, gone := js.expired[msg.ID]; gone {
			return // submit record for a job whose retention already lapsed
		}
	}
	finished := time.Now()
	if finishedAtMS > 0 {
		finished = time.UnixMilli(finishedAtMS)
		if time.Since(finished) > js.ttl {
			// Expired before the crash: stay expired. Drop any submit-form
			// restoration of the same ID and remember it, so neither replay
			// order resurrects the job.
			delete(js.m, msg.ID)
			if js.expired == nil {
				js.expired = make(map[string]struct{})
			}
			js.expired[msg.ID] = struct{}{}
			return
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every cell is terminal; nothing observes the context
	elapsed := time.Duration(msg.ElapsedMS * float64(time.Millisecond))
	j := &Job{
		id:        msg.ID,
		seq:       seq,
		name:      msg.Instance.Name,
		info:      msg.Instance,
		ctx:       ctx,
		cancel:    cancel,
		js:        js,
		cancelled: msg.Status == seio.JobCancelled,
		created:   finished.Add(-elapsed),
		finished:  finished,
	}
	for _, cm := range msg.Cells {
		c := &jobCell{algorithm: cm.Algorithm, k: cm.K, state: cm.State, errMsg: cm.Error}
		if cm.Result != nil {
			c.resp = *cm.Result
		}
		// Only finished jobs are logged, so active states cannot appear —
		// but a hand-edited log must not resurrect a "running" cell no
		// worker owns.
		if c.state == seio.CellQueued || c.state == seio.CellRunning {
			c.state = seio.CellCancelled
		}
		j.cells = append(j.cells, c)
	}
	js.m[msg.ID] = j
}

// finishedAt reads the job's completion time (zero while running).
func (j *Job) finishedAt() time.Time {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// seqSnapshot reads the current ID sequence for a snapshot's meta record.
func (js *Jobs) seqSnapshot() uint64 {
	js.mu.Lock()
	defer js.mu.Unlock()
	return js.seq
}

// dumpJobs snapshots every retained job for the compactor, in submission
// order. Active jobs are included in their current (running) form: their
// submit record may live in a segment this compaction deletes, and without a
// copy in the snapshot a crash before their finish record would 404 the ID a
// client is still polling (restore clamps the running form to cancelled; the
// finish record, if the job completes, supersedes it on replay).
func (js *Jobs) dumpJobs() []seio.WALJob {
	js.mu.Lock()
	jobs := make([]*Job, 0, len(js.m))
	for _, j := range js.m {
		jobs = append(jobs, j)
	}
	js.mu.Unlock()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].seq < jobs[b].seq })
	out := make([]seio.WALJob, 0, len(jobs))
	for _, j := range jobs {
		wj := seio.WALJob{Seq: j.seq, Status: j.status(true)}
		if fin := j.finishedAt(); !fin.IsZero() {
			wj.FinishedAtMS = fin.UnixMilli()
		}
		out = append(out, wj)
	}
	return out
}

// Get returns the job with the given ID.
func (js *Jobs) Get(id string) (*Job, error) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.purgeLocked(time.Now())
	j, ok := js.m[id]
	if !ok {
		return nil, ErrJobNotFound
	}
	return j, nil
}

// List snapshots every retained job's summary, newest first.
func (js *Jobs) List() []seio.JobStatusMsg {
	js.mu.Lock()
	js.purgeLocked(time.Now())
	jobs := make([]*Job, 0, len(js.m))
	for _, j := range js.m {
		jobs = append(jobs, j)
	}
	js.mu.Unlock()
	out := make([]seio.JobStatusMsg, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status(false))
	}
	// Job IDs are "job-<seq>": comparing length before bytes orders them
	// numerically; descending puts the newest submission first.
	sort.Slice(out, func(a, b int) bool {
		ida, idb := out[a].ID, out[b].ID
		if len(ida) != len(idb) {
			return len(ida) > len(idb)
		}
		return ida > idb
	})
	return out
}

// Close cancels every job and waits for all dispatcher goroutines to exit.
// Running cells stop through their contexts once the pool drains them; the
// pool itself is closed by the caller afterwards.
func (js *Jobs) Close() {
	js.mu.Lock()
	js.done = true
	jobs := make([]*Job, 0, len(js.m))
	for _, j := range js.m {
		jobs = append(jobs, j)
	}
	js.mu.Unlock()
	for _, j := range jobs {
		j.cancelJob()
	}
	js.wg.Wait()
}

// cancelJob requests cancellation: the context stops running cells and the
// queued-cell sweep retires everything the pool has not started yet.
// Cancelling a job that already reached a terminal state is a no-op — a late
// DELETE must not demote a completed job to cancelled.
func (j *Job) cancelJob() {
	j.mu.Lock()
	if !j.finished.IsZero() {
		j.mu.Unlock()
		return
	}
	j.cancelled = true
	j.mu.Unlock()
	j.cancel()
	j.cancelQueued(0)
}

// retained reports the number of currently retained jobs (for the metrics
// gauge).
func (js *Jobs) retained() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return len(js.m)
}

// handleSubmitJob validates and registers a sweep job, then starts its
// dispatcher. The response is the job's initial status (202 Accepted).
func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req seio.JobRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	algos := req.Algorithms
	if len(algos) == 0 {
		algos = []string{"ALG", "INC", "HOR", "HOR-I"}
	}
	if len(req.Ks) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("job needs at least one k value"))
		return
	}
	for _, k := range req.Ks {
		if k <= 0 {
			writeErr(w, http.StatusBadRequest, algo.ErrBadK)
			return
		}
	}
	opts := core.ScorerOptions{UserWeights: req.UserWeights, EventCost: req.EventCosts}
	for _, a := range algos {
		if _, err := algo.New(a, 0); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	if cells := len(algos) * len(req.Ks); cells > s.cfg.MaxJobCells {
		writeErr(w, http.StatusBadRequest,
			fmt.Errorf("sweep grid has %d cells, limit is %d", cells, s.cfg.MaxJobCells))
		return
	}
	inst, info, err := s.store.Get(name)
	if err != nil {
		writeErr(w, storeErrCode(err), err)
		return
	}
	// Scorer options are validated against the pinned snapshot now, so a
	// dimension mismatch fails the submit instead of every cell.
	if _, err := core.NewScorerWithOptions(inst, opts); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	j := &Job{
		name:    name,
		inst:    inst,
		info:    info,
		seed:    req.Seed,
		opts:    opts,
		ctx:     ctx,
		cancel:  cancel,
		js:      s.jobs,
		created: time.Now(),
	}
	for _, a := range algos {
		for _, k := range req.Ks {
			j.cells = append(j.cells, &jobCell{algorithm: a, k: k, state: seio.CellQueued})
		}
	}
	if err := s.jobs.add(j); err != nil {
		cancel()
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	// Log the submission before any cell runs: the job's ID sequence value
	// must survive a crash mid-sweep, or a post-restart submission would
	// hand this job's ID to a different client (the in-flight job itself
	// recovers as cancelled; its finish record, if reached, supersedes). A
	// failed append refuses the submission for the same reason the store
	// refuses unlogged mutations — an unlogged ID is a recyclable ID.
	if s.wal != nil {
		if err := s.appendJobRecord(j); err != nil {
			cancel()
			s.jobs.abortUnstarted(j.id)
			writeErr(w, http.StatusInternalServerError, fmt.Errorf("%w: %v", ErrWALAppend, err))
			return
		}
	}
	s.startJob(j)
	writeJSON(w, http.StatusAccepted, j.status(true))
}

// startJob launches the job's dispatcher: one goroutine feeding cells to the
// bounded pool, paced by the queue's backpressure via SubmitWait. The
// WaitGroup slot was reserved by Jobs.add.
func (s *Server) startJob(j *Job) {
	go func() {
		defer s.jobs.wg.Done()
		i := 0
		for ; i < len(j.cells); i++ {
			c := j.cells[i]
			if err := s.pool.SubmitWait(j.ctx, func() { s.runJobCell(j, c) }); err != nil {
				break
			}
		}
		if i < len(j.cells) {
			// The context died or the pool closed before every cell was
			// handed over; retire the unsubmitted tail so the job still
			// reaches a terminal state.
			j.cancelQueued(i)
		}
	}()
}

// runJobCell executes one sweep cell on a pool worker: result cache first,
// then a cancellable solve against the job's pinned snapshot.
func (s *Server) runJobCell(j *Job, c *jobCell) {
	if !j.begin(c) {
		return // a cancellation sweep claimed the cell first
	}
	q := newSolveRun(j.name, j.inst, j.info, c.algorithm, c.k, j.seed, j.opts)
	if resp, ok := s.cached(q); ok {
		j.finishCell(c, seio.CellDone, resp, nil)
		return
	}
	// Sweep cells run far from their submitting request, so each actually
	// solved cell gets its own root trace — cache hits above stay out of the
	// ring. The job ID ties the trace back to the sweep.
	tr := span.NewRoot("job_cell")
	tr.Annotate("job", j.id)
	tr.Annotate("instance", j.name)
	tr.Annotate("algorithm", c.algorithm)
	tr.Annotate("k", strconv.Itoa(c.k))
	defer s.recordTrace(tr)
	// Every cell of the sweep runs against the job's pinned version, so all
	// of them (and any concurrent solves of that version) share one engine.
	resp, _, err := s.solve(span.NewContext(j.ctx, tr), q)
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finishCell(c, seio.CellCancelled, seio.SolveResponse{}, err)
	case err != nil:
		j.finishCell(c, seio.CellFailed, seio.SolveResponse{}, err)
	default:
		j.finishCell(c, seio.CellDone, resp, nil)
	}
}

// handleGetJob returns the job's full status including the per-cell partial
// results of a still-running sweep.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, j.status(true))
}

// handleListJobs returns every retained job's summary.
func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, seio.JobListResponse{Jobs: s.jobs.List()})
}

// handleCancelJob cancels a job: queued cells retire immediately, running
// cells stop at their next context check. Cancelling a finished job is a
// no-op; either way the job's current status is returned (it stays pollable
// until the TTL retires it).
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	s.jobs.cancelRequests.Add(1)
	j.cancelJob()
	writeJSON(w, http.StatusOK, j.status(true))
}
