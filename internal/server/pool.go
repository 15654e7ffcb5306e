package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ErrBusy is returned by Pool.Submit when the job queue is full; HTTP
// handlers translate it into 429 Too Many Requests.
var ErrBusy = errors.New("server: solver queue is full")

// ErrPoolClosed is returned by Pool.Submit after Close: the server is
// shutting down and accepts no more work (503 at the HTTP layer).
var ErrPoolClosed = errors.New("server: solver pool is closed")

// job is one unit of solver work. ctx is the submitting request's context:
// jobs whose request died while queued are skipped, not executed.
type job struct {
	ctx      context.Context
	run      func()
	enqueued time.Time
}

// Pool is a bounded worker pool: a fixed number of solver goroutines
// draining a fixed-capacity queue. Bounding both is the backpressure story —
// CPU-bound solves never oversubscribe the machine, and a full queue fails
// fast instead of stacking latency.
type Pool struct {
	jobs chan job
	wg   sync.WaitGroup
	// closeMu makes Submit-vs-Close safe: Submit sends under the read
	// lock, Close flips closed and closes the channel under the write
	// lock, so a straggling handler during shutdown gets ErrPoolClosed
	// instead of panicking on a closed channel.
	closeMu sync.RWMutex
	closed  bool

	// queueWait, when set (by the server before traffic), observes how long
	// each dequeued job sat in the queue — the backpressure latency signal.
	// Nil-safe for direct Pool users.
	queueWait *metrics.Histogram

	workers   int
	active    atomic.Int64
	completed atomic.Int64
	rejected  atomic.Int64
	skipped   atomic.Int64
	panics    atomic.Int64
}

// NewPool starts workers goroutines behind a queue of the given capacity.
// workers must be ≥ 1; queue may be 0 (a job is accepted only when a worker
// is ready to take it immediately).
func NewPool(workers, queue int) *Pool {
	if workers < 1 {
		workers = 1
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{jobs: make(chan job, queue), workers: workers}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

func (p *Pool) work() {
	defer p.wg.Done()
	for j := range p.jobs {
		if j.ctx.Err() != nil {
			// The request died while queued: skip without observing queue
			// wait. A context-dead job's wait is however long its client was
			// willing to linger, not a backpressure signal — counting it
			// (the old behavior) skewed the histogram exactly when clients
			// were timing out, i.e. when the signal mattered most.
			p.skipped.Add(1)
			continue
		}
		p.queueWait.ObserveSince(j.enqueued)
		p.active.Add(1)
		p.runJob(j)
		// Completed first: an idle pool (active 0, queue empty) has booked
		// every job it ran.
		p.completed.Add(1)
		p.active.Add(-1)
	}
}

// runJob is the worker's panic boundary: the store is memory-only, so one
// panicking job must degrade to a failed request, never crash the daemon and
// lose every uploaded instance. (The solve path recovers its own panics into
// a failed run first; this one backstops every other job, and runOnPool
// turns a job that ended here into errSolverPanicked.)
func (p *Pool) runJob(j job) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
		}
	}()
	j.run()
}

// Submit enqueues run without blocking. It returns ErrBusy when the queue is
// full, ErrPoolClosed after Close, and ctx.Err() when the request is already
// dead.
func (p *Pool) Submit(ctx context.Context, run func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.jobs <- job{ctx: ctx, run: run, enqueued: time.Now()}:
		return nil
	default:
		p.rejected.Add(1)
		return ErrBusy
	}
}

// SubmitWait enqueues run, blocking until a queue slot frees up or ctx is
// cancelled. It is the submission path of job dispatchers, which own a
// goroutine and therefore want the queue's backpressure to pace them rather
// than fail them. Blocking while holding the read lock is safe: Close only
// closes the channel after taking the write lock, and until then the workers
// keep draining the queue, so a blocked send always makes progress.
func (p *Pool) SubmitWait(ctx context.Context, run func()) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.jobs <- job{ctx: ctx, run: run, enqueued: time.Now()}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting work and waits for queued jobs to drain. It is
// idempotent.
func (p *Pool) Close() {
	p.closeMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.jobs)
	}
	p.closeMu.Unlock()
	p.wg.Wait()
}
