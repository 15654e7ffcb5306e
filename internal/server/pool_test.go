package server

import (
	"context"
	"errors"
	"testing"

	"repro/internal/metrics"
)

// The queue-wait histogram is the backpressure latency signal: it must count
// only jobs a worker actually ran. Context-dead jobs sat in the queue for
// however long their client lingered — observing them (the old behavior)
// poisoned the histogram exactly when clients were timing out.
func TestPoolQueueWaitSkipsDeadJobs(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	reg := metrics.NewRegistry()
	p.queueWait = reg.Histogram("test_queue_wait_seconds", "", metrics.DurationBuckets)

	// Park the single worker so submissions queue behind it.
	block := make(chan struct{})
	started := make(chan struct{})
	if err := p.Submit(context.Background(), func() { close(started); <-block }); err != nil {
		t.Fatal(err)
	}
	<-started
	base := p.queueWait.Count() // the parked job itself was observed

	// Queue one live and two already-cancelled jobs behind the parked one.
	ran := make(chan struct{})
	if err := p.Submit(context.Background(), func() { close(ran) }); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 2; i++ {
		if err := p.Submit(dead, func() { t.Error("context-dead job executed") }); err == nil {
			t.Fatal("Submit accepted a dead context without error")
		} else if err != context.Canceled {
			t.Fatalf("Submit(dead ctx) = %v, want context.Canceled", err)
		}
	}
	// Submit rejects dead contexts up front; enqueue dead jobs directly so
	// the worker-side skip path is what's under test.
	for i := 0; i < 2; i++ {
		p.jobs <- job{ctx: dead, run: func() { t.Error("context-dead job executed") }}
	}

	close(block)
	<-ran
	p.Close() // drain everything before reading counters

	if got := p.queueWait.Count() - base; got != 1 {
		t.Errorf("queue wait observed %d jobs, want 1 (executed only)", got)
	}
	if got := p.skipped.Load(); got != 2 {
		t.Errorf("skipped = %d, want 2", got)
	}
}

// TestSolvePanicsBecomeErrors: a panic on the solve path fails its run with
// errSolverPanicked, counted once, and a job that panics into the pool's
// backstop reports the same error to the caller waiting on it.
func TestSolvePanicsBecomeErrors(t *testing.T) {
	s, err := New(Config{Workers: 1, Queue: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	// A run pinned to no instance panics inside the engine build.
	if _, _, err := s.solve(ctx, solveRun{}); !errors.Is(err, errSolverPanicked) {
		t.Fatalf("solve of no instance: %v, want errSolverPanicked", err)
	}
	if got := s.pool.panics.Load(); got != 1 {
		t.Errorf("panics counter %d after the solve, want 1", got)
	}
	if err := runOnPool(ctx, s.pool.Submit, func() error { panic("boom") }); !errors.Is(err, errSolverPanicked) {
		t.Fatalf("panicking job: %v, want errSolverPanicked", err)
	}
	if got := s.pool.panics.Load(); got != 2 {
		t.Errorf("panics counter %d after the backstop, want 2", got)
	}
}
