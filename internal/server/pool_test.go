package server

import (
	"context"
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
