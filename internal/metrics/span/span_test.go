package span

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAddAccumulatesAndKeepsOrder(t *testing.T) {
	tr := NewRoot("solve")
	tr.Add("score", 10*time.Millisecond)
	tr.Add("select", 5*time.Millisecond)
	tr.Add("score", 15*time.Millisecond)

	if got := tr.Get("score"); got != 25*time.Millisecond {
		t.Fatalf("score = %v, want 25ms", got)
	}
	kids := tr.Snapshot().Root.Children
	if len(kids) != 2 || kids[0].Name != "score" || kids[1].Name != "select" {
		t.Fatalf("children = %+v, want score then select", kids)
	}
	if kids[0].DurationMS != 25 || kids[0].Count != 2 || kids[1].DurationMS != 5 {
		t.Fatalf("aggregate children = %+v", kids)
	}
}

func TestTimedSpansBuildATree(t *testing.T) {
	tr := NewRoot("solve")
	acq := tr.Start("engine_acquire")
	acq.Annotate("engine", "cold")
	child := acq.Start("precompute")
	child.End()
	acq.End()
	tr.Add("score", 2*time.Millisecond)
	tr.Finish()

	td := tr.Snapshot()
	if td.Route != "solve" {
		t.Fatalf("route = %q", td.Route)
	}
	if len(td.TraceID) != 32 {
		t.Fatalf("trace id %q is not 32 hex digits", td.TraceID)
	}
	if td.SpanCount() != 4 { // root + engine_acquire + precompute + score
		t.Fatalf("span count = %d, want 4", td.SpanCount())
	}
	if len(td.Root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(td.Root.Children))
	}
	a := td.Root.Children[0]
	if a.Name != "engine_acquire" || a.Attrs["engine"] != "cold" {
		t.Fatalf("first child = %+v", a)
	}
	if len(a.Children) != 1 || a.Children[0].Name != "precompute" {
		t.Fatalf("engine_acquire children = %+v", a.Children)
	}
	if sc := td.Root.Children[1]; sc.Count != 1 || sc.DurationMS != 2 {
		t.Fatalf("score aggregate = %+v", sc)
	}
	// Snapshots must serialize (the debug endpoint renders them as JSON).
	if _, err := json.Marshal(td); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotClampsUnendedSpans(t *testing.T) {
	tr := NewRoot("solve")
	tr.Start("queue") // never ended: the request died while queued
	time.Sleep(time.Millisecond)
	tr.Finish()
	td := tr.Snapshot()
	q := td.Root.Children[0]
	if q.DurationMS <= 0 {
		t.Fatalf("unended span duration = %v, want > 0 (clamped to trace end)", q.DurationMS)
	}
	if q.DurationMS > td.DurationMS {
		t.Fatalf("unended span %vms exceeds trace %vms", q.DurationMS, td.DurationMS)
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.Add("x", time.Second)
	tr.Annotate("k", "v")
	sp := tr.Start("x")
	sp.Annotate("k", "v")
	sp.End()
	sp.Start("y").End()
	if tr.Get("x") != 0 || tr.ID() != "" || tr.Traceparent() != "" {
		t.Fatal("nil trace leaked state")
	}
	if d := tr.Finish(); d != 0 {
		t.Fatalf("nil Finish = %v", d)
	}
	if td := tr.Snapshot(); td.TraceID != "" {
		t.Fatalf("nil Snapshot = %+v", td)
	}
	if ctx := NewContext(context.Background(), nil); FromContext(ctx) != nil {
		t.Fatal("nil trace attached to context")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewRoot("x")
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("trace did not round-trip through context")
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context returned a trace")
	}
}

// TestConcurrentSpanTree exercises the scoring fan-out shape under the race
// detector: shard goroutines book into one aggregate while the handler
// goroutine opens and annotates timed spans on the same trace.
func TestConcurrentSpanTree(t *testing.T) {
	tr := NewRoot("solve")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Add("score", time.Microsecond)
			}
		}()
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sp := tr.Start(fmt.Sprintf("stage-%d", g))
			sp.Annotate("g", "x")
			sp.Start("child").End()
			sp.End()
		}(g)
	}
	wg.Wait()
	tr.Finish()
	if got := tr.Get("score"); got != 8*200*time.Microsecond {
		t.Fatalf("score = %v, want %v", got, 8*200*time.Microsecond)
	}
	if n := tr.Snapshot().SpanCount(); n != 1+1+2*8 {
		t.Fatalf("span count = %d, want %d", n, 1+1+2*8)
	}
}

func TestSpanCapDropsNotGrows(t *testing.T) {
	tr := NewRoot("stream")
	for i := 0; i < maxSpans+100; i++ {
		tr.Start(fmt.Sprintf("s%d", i)).End()
	}
	tr.Add("late", time.Millisecond) // new aggregate past the cap: dropped
	td := tr.Snapshot()
	if td.SpanCount() > maxSpans {
		t.Fatalf("trace holds %d spans, cap is %d", td.SpanCount(), maxSpans)
	}
	if td.DroppedSpans != 101+1 {
		t.Fatalf("dropped = %d, want 102", td.DroppedSpans)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	header, tid := MintTraceparent()
	ptid, _, ok := ParseTraceparent(header)
	if !ok {
		t.Fatalf("minted header %q did not parse", header)
	}
	if got := fmt.Sprintf("%x", ptid); got != tid {
		t.Fatalf("trace id %s != minted %s", got, tid)
	}

	tr := NewRoot("solve")
	if !tr.Adopt(header) {
		t.Fatalf("Adopt(%q) = false", header)
	}
	if tr.ID() != tid {
		t.Fatalf("adopted id %s != %s", tr.ID(), tid)
	}
	if !strings.HasPrefix(tr.Traceparent(), "00-"+tid+"-") {
		t.Fatalf("echoed traceparent %q lost the trace id", tr.Traceparent())
	}
	if td := tr.Snapshot(); td.Root.Attrs["caller_span"] == "" {
		t.Fatal("caller span id was not kept as an annotation")
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",      // no flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-x", // v00 with extra
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",   // forbidden version
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",   // zero trace id
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",   // zero parent
		"00-4bf92f3577b34da6a3ce929d0e0e47ZZ-00f067aa0ba902b7-01",   // non-hex
		"00_4bf92f3577b34da6a3ce929d0e0e4736_00f067aa0ba902b7_01",   // wrong separators
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", h)
		}
	}
	// Future versions with trailing fields are legal.
	if _, _, ok := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); !ok {
		t.Error("version 01 with extra fields rejected")
	}
}

func TestStoreGetAndFilter(t *testing.T) {
	st := NewStore(8)
	for i := 0; i < 5; i++ {
		tr := NewRoot("solve")
		if i%2 == 1 {
			tr = NewRoot("extend")
		}
		tr.Finish()
		td := tr.Snapshot()
		td.DurationMS = float64(i) // synthetic, for the filter
		st.Add(td)
	}
	if st.Len() != 5 || st.Stored() != 5 || st.Evicted() != 0 {
		t.Fatalf("len=%d stored=%d evicted=%d", st.Len(), st.Stored(), st.Evicted())
	}
	all := st.Recent("", 0, 10)
	if len(all) != 5 {
		t.Fatalf("Recent returned %d traces", len(all))
	}
	if all[0].DurationMS != 4 {
		t.Fatal("Recent is not newest-first")
	}
	if got, ok := st.Get(all[2].TraceID); !ok || got.TraceID != all[2].TraceID {
		t.Fatal("Get by id failed")
	}
	if got := st.Recent("extend", 0, 10); len(got) != 2 {
		t.Fatalf("route filter returned %d", len(got))
	}
	if got := st.Recent("", 3*time.Millisecond, 10); len(got) != 2 { // 3 and 4
		t.Fatalf("min-duration filter returned %d", len(got))
	}
	if got := st.Recent("", 0, 2); len(got) != 2 {
		t.Fatalf("limit returned %d", len(got))
	}
}

// TestStoreEvictionChurn hammers a small ring from many goroutines and then
// checks the invariants: retained count equals capacity, every indexed ID
// resolves, and stored-evicted bookkeeping balances.
func TestStoreEvictionChurn(t *testing.T) {
	const capacity, writers, each = 16, 8, 200
	st := NewStore(capacity)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr := NewRoot("solve")
				tr.Finish()
				st.Add(tr.Snapshot())
				st.Recent("solve", 0, 4)
			}
		}()
	}
	wg.Wait()
	if st.Len() != capacity {
		t.Fatalf("retained %d, want %d", st.Len(), capacity)
	}
	if st.Stored() != writers*each {
		t.Fatalf("stored = %d, want %d", st.Stored(), writers*each)
	}
	if st.Evicted() != writers*each-capacity {
		t.Fatalf("evicted = %d, want %d", st.Evicted(), writers*each-capacity)
	}
	for _, td := range st.Recent("", 0, capacity) {
		if _, ok := st.Get(td.TraceID); !ok {
			t.Fatalf("retained trace %s not resolvable by id", td.TraceID)
		}
	}
}
