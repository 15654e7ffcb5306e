// Package span is sesd's per-request tracing subsystem: a Trace is a tree of
// named spans with IDs, parent links and wall-clock start/end times, minted
// (or adopted from an incoming W3C traceparent header) by the HTTP middleware
// and riding the request's context so lower layers — the solver pool, the
// engine cache, the sharded scoring engine — can attribute their time to the
// request that caused it even when the component doing the work is shared
// across requests.
//
// Two kinds of spans coexist in one tree:
//
//   - timed spans (Start/End) carry a wall-clock start and duration — the
//     queue wait, the engine acquire, the response encode;
//   - aggregate spans (Add) accumulate duration and a count without reading
//     the clock themselves — the scoring engine books each batch's wall time
//     into the "score" aggregate, hundreds of times per solve, for the price
//     of one mutex hop and no extra time.Now calls.
//
// Everything is nil-safe: a nil *Trace (an unwired bench or CLI path) turns
// every call into a no-op, so instrumented code never branches on "is tracing
// on". The cost of a disabled trace stays one pointer check.
package span

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"
)

// maxSpans bounds the spans one trace may hold: a long-held streaming request
// cannot balloon the ring store by accreting spans forever. Starts past the
// cap are counted as dropped and return nil (whose End is a no-op).
const maxSpans = 512

// attr is one key=value annotation on a span.
type attr struct{ key, value string }

// Span is one node of the trace tree. All fields are guarded by the owning
// trace's mutex; a Span is only ever touched through its methods.
type Span struct {
	tr       *Trace
	parent   *Span
	id       [8]byte
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	count    int64 // aggregate observation count; 0 marks a timed span
	attrs    []attr
	children []*Span
}

// Trace is one request's span tree. Safe for concurrent use: parallel scoring
// goroutines may add to the same aggregate while the handler opens timed
// spans. Construct with NewRoot; the zero Trace is not usable.
type Trace struct {
	mu      sync.Mutex
	traceID [16]byte
	root    *Span
	nspans  int
	dropped int64
}

func (t *Trace) lock()   { t.mu.Lock() }
func (t *Trace) unlock() { t.mu.Unlock() }

// NewRoot mints a trace with a fresh random trace ID and a started root span
// named name (the route, for server traces).
func NewRoot(name string) *Trace {
	t := &Trace{}
	randRead(t.traceID[:])
	t.root = &Span{tr: t, name: name, start: time.Now()}
	randRead(t.root.id[:])
	t.nspans = 1
	return t
}

// randRead fills b with non-zero randomness (an all-zero trace or span ID is
// invalid in the W3C format).
func randRead(b []byte) {
	for {
		zero := true
		for i := 0; i < len(b); i += 8 {
			v := rand.Uint64()
			for j := i; j < len(b) && j < i+8; j++ {
				b[j] = byte(v)
				v >>= 8
			}
		}
		for _, c := range b {
			if c != 0 {
				zero = false
				break
			}
		}
		if !zero {
			return
		}
	}
}

// ID returns the 32-hex-digit trace ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return hex.EncodeToString(t.traceID[:])
}

// Adopt parses a W3C traceparent header and, when valid, adopts its trace ID
// so the server's spans join the caller's trace; the caller's span ID is kept
// as a "caller_span" annotation on the root. Reports whether h was adopted.
// Nil-safe.
func (t *Trace) Adopt(h string) bool {
	tid, parent, ok := ParseTraceparent(h)
	if t == nil || !ok {
		return ok
	}
	t.lock()
	t.traceID = tid
	t.root.attrs = append(t.root.attrs, attr{"caller_span", hex.EncodeToString(parent[:])})
	t.unlock()
	return true
}

// Traceparent renders the trace's current W3C traceparent header, with the
// root span as the parent ID ("" on nil).
func (t *Trace) Traceparent() string {
	if t == nil {
		return ""
	}
	return FormatTraceparent(t.traceID, t.root.id)
}

// Annotate attaches a key=value annotation to the root span. Nil-safe.
func (t *Trace) Annotate(key, value string) {
	if t == nil {
		return
	}
	t.lock()
	t.root.attrs = append(t.root.attrs, attr{key, value})
	t.unlock()
}

// Add accumulates d into the named aggregate span under the root, creating it
// on first use. It never reads the clock — the caller already measured d —
// which keeps the scoring hot path at one time.Now pair per batch. Nil-safe.
func (t *Trace) Add(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.lock()
	defer t.unlock()
	for _, c := range t.root.children {
		if c.name == name && c.count > 0 {
			c.dur += d
			c.count++
			return
		}
	}
	if t.nspans >= maxSpans {
		t.dropped++
		return
	}
	sp := &Span{tr: t, parent: t.root, name: name, dur: d, count: 1, ended: true}
	randRead(sp.id[:])
	t.root.children = append(t.root.children, sp)
	t.nspans++
}

// Get returns the summed duration of the root's direct children with the
// given name (0 if absent or on a nil trace). Timed spans that have not ended
// contribute nothing yet.
func (t *Trace) Get(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.lock()
	defer t.unlock()
	var sum time.Duration
	for _, c := range t.root.children {
		if c.name == name {
			sum += c.dur
		}
	}
	return sum
}

// Start opens a timed child span under the root. On a nil trace — or past the
// per-trace span cap — it returns nil, whose every method is a no-op.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.lock()
	defer t.unlock()
	return t.root.startLocked(name)
}

// Start opens a timed child span under sp. Nil-safe.
func (sp *Span) Start(name string) *Span {
	if sp == nil {
		return nil
	}
	sp.tr.lock()
	defer sp.tr.unlock()
	return sp.startLocked(name)
}

func (sp *Span) startLocked(name string) *Span {
	t := sp.tr
	if t.nspans >= maxSpans {
		t.dropped++
		return nil
	}
	c := &Span{tr: t, parent: sp, name: name, start: time.Now()}
	randRead(c.id[:])
	sp.children = append(sp.children, c)
	t.nspans++
	return c
}

// End stops the span, fixing its duration. Nil-safe; End at most once.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.tr.lock()
	if !sp.ended {
		sp.ended = true
		sp.dur = time.Since(sp.start)
	}
	sp.tr.unlock()
}

// Annotate attaches a key=value annotation. Nil-safe.
func (sp *Span) Annotate(key, value string) {
	if sp == nil {
		return
	}
	sp.tr.lock()
	sp.attrs = append(sp.attrs, attr{key, value})
	sp.tr.unlock()
}

// Finish ends the root span and returns the trace's total duration. Nil
// returns 0. Spans still open (a queued job whose request died) are clamped
// to the trace end by Snapshot rather than left dangling.
func (t *Trace) Finish() time.Duration {
	if t == nil {
		return 0
	}
	t.lock()
	defer t.unlock()
	if !t.root.ended {
		t.root.ended = true
		t.root.dur = time.Since(t.root.start)
	}
	return t.root.dur
}

// TraceData is an immutable snapshot of a finished trace — what the ring
// store retains and GET /debug/traces/{id} returns.
type TraceData struct {
	TraceID string    `json:"trace_id"`
	Route   string    `json:"route"`
	Start   time.Time `json:"start"`
	// DurationMS is the root span's wall time in milliseconds.
	DurationMS float64 `json:"duration_ms"`
	// DroppedSpans counts spans discarded past the per-trace cap.
	DroppedSpans int64    `json:"dropped_spans,omitempty"`
	Root         SpanData `json:"root"`
}

// SpanData is one rendered node of the span tree.
type SpanData struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// StartMS is the span's start offset from the trace start in
	// milliseconds (0 for aggregate spans, which carry no wall-clock).
	StartMS    float64 `json:"start_ms"`
	DurationMS float64 `json:"duration_ms"`
	// Count is the number of merged observations of an aggregate span
	// (0 marks a wall-clocked timed span).
	Count    int64             `json:"count,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []SpanData        `json:"children,omitempty"`
}

// SpanCount returns the number of spans in the tree, root included.
func (td TraceData) SpanCount() int {
	var walk func(SpanData) int
	walk = func(s SpanData) int {
		n := 1
		for _, c := range s.Children {
			n += walk(c)
		}
		return n
	}
	return walk(td.Root)
}

// Snapshot renders the trace as an immutable tree. Unended spans are clamped
// to the trace end (or to now, if the trace itself is unfinished), so a
// snapshot never contains a negative or runaway duration. Nil returns the
// zero TraceData.
func (t *Trace) Snapshot() TraceData {
	if t == nil {
		return TraceData{}
	}
	t.lock()
	defer t.unlock()
	end := time.Now()
	if t.root.ended {
		end = t.root.start.Add(t.root.dur)
	}
	return TraceData{
		TraceID:      hex.EncodeToString(t.traceID[:]),
		Route:        t.root.name,
		Start:        t.root.start,
		DurationMS:   durMS(end.Sub(t.root.start)),
		DroppedSpans: t.dropped,
		Root:         t.root.snapshotLocked(t.root.start, end),
	}
}

func (sp *Span) snapshotLocked(traceStart, traceEnd time.Time) SpanData {
	d := SpanData{
		ID:    hex.EncodeToString(sp.id[:]),
		Name:  sp.name,
		Count: sp.count,
	}
	if sp.count == 0 { // timed span
		d.StartMS = durMS(sp.start.Sub(traceStart))
		if sp.ended {
			d.DurationMS = durMS(sp.dur)
		} else if e := traceEnd.Sub(sp.start); e > 0 {
			d.DurationMS = durMS(e)
		}
	} else {
		d.DurationMS = durMS(sp.dur)
	}
	if len(sp.attrs) > 0 {
		d.Attrs = make(map[string]string, len(sp.attrs))
		for _, a := range sp.attrs {
			d.Attrs[a.key] = a.value
		}
	}
	for _, c := range sp.children {
		d.Children = append(d.Children, c.snapshotLocked(traceStart, traceEnd))
	}
	return d
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ParseTraceparent parses a W3C traceparent header
// ("00-{32 hex trace-id}-{16 hex parent-id}-{2 hex flags}"). It accepts any
// non-ff version per the spec's forward-compatibility rule and rejects
// all-zero IDs.
func ParseTraceparent(h string) (traceID [16]byte, parentID [8]byte, ok bool) {
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return traceID, parentID, false
	}
	if h[0] == 'f' && h[1] == 'f' {
		return traceID, parentID, false // version 0xff is forbidden
	}
	if !isHex(h[:2]) || !isHex(h[53:55]) {
		return traceID, parentID, false
	}
	if len(h) > 55 && (h[:2] == "00" || h[55] != '-') {
		// Version 00 is exactly 55 bytes; later versions may append
		// "-extra" fields.
		return traceID, parentID, false
	}
	if _, err := hex.Decode(traceID[:], []byte(h[3:35])); err != nil {
		return traceID, parentID, false
	}
	if _, err := hex.Decode(parentID[:], []byte(h[36:52])); err != nil {
		return traceID, parentID, false
	}
	if traceID == [16]byte{} || parentID == [8]byte{} {
		return traceID, parentID, false
	}
	return traceID, parentID, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// FormatTraceparent renders a version-00 traceparent header with the sampled
// flag set.
func FormatTraceparent(traceID [16]byte, spanID [8]byte) string {
	return fmt.Sprintf("00-%s-%s-01", hex.EncodeToString(traceID[:]), hex.EncodeToString(spanID[:]))
}

// MintTraceparent mints a fresh client-side traceparent header, returning the
// header and the embedded trace ID (the key to look the server trace up by).
func MintTraceparent() (header, traceID string) {
	var tid [16]byte
	var sid [8]byte
	randRead(tid[:])
	randRead(sid[:])
	return FormatTraceparent(tid, sid), hex.EncodeToString(tid[:])
}

type ctxKey struct{}

// NewContext attaches the trace to the context. A nil trace returns ctx
// unchanged, so disabled tracing adds no context layer to look through.
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
