// Package obs is the cluster's request-scoped tracing layer: zero
// external dependencies, one trace per inbound request (or per dispatched
// job), spans for every instrumented phase, and a fixed-size per-process
// ring buffer of finished traces served as JSON at GET /debug/traces.
//
// The paper this repo reproduces is an exercise in answering "where do
// the cycles go" for datacenter workloads; obs answers the same question
// about the reproduction itself. A slow /v1/jobs request hops
// front-end → dispatch → worker → simulator, and before
// this package existed its time vanished into monotonic counters. Now:
//
//   - every inbound request gets a trace ID — fresh, or propagated from
//     the X-Dcs-Trace header, so a dispatched job's worker-side trace
//     carries the front-end's ID and one grep over two /debug/traces
//     documents the full cross-process life of the job;
//   - instrumented code starts spans off the request context
//     (obs.Start(ctx, ...)); contexts without a trace make every call a
//     no-op, so library code is instrumented unconditionally;
//   - finished traces land in a Recorder — a fixed-size ring that
//     overwrites oldest-first, snapshotted by /debug/traces with an
//     optional ?min_ms= floor for "show me the slow ones".
//
// The companion histogram.go holds the fixed-bucket latency histograms
// /metrics exports per endpoint and per job kind; debug.go mounts both
// the trace dump and net/http/pprof behind one mux for -debug-addr.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// TraceHeader is the HTTP header that carries a trace ID between
// processes: a front-end stamps it on every dispatched job request, and a
// server adopts an inbound ID instead of generating one. Responses echo
// it so a client that did not send an ID still learns which trace its
// request produced.
const TraceHeader = "X-Dcs-Trace"

// DefaultRingSize is how many finished traces a Recorder keeps when the
// caller does not say otherwise: enough to hold the recent past of a busy
// server (a full e2e run is a few hundred requests) at a few KB per
// trace.
const DefaultRingSize = 512

// maxIDLen bounds an inbound trace ID; anything longer (or containing
// bytes outside the ID alphabet) is replaced with a fresh ID rather than
// stored and re-emitted.
const maxIDLen = 64

// Attrs are a span's (or trace's) key/value annotations.
type Attrs map[string]string

// SpanData is one finished span as /debug/traces serves it: a named phase
// with its offset from the trace start and its duration, both in
// milliseconds (the unit an operator eyeballing a slow request thinks
// in).
type SpanData struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	DurMS   float64 `json:"dur_ms"`
	Attrs   Attrs   `json:"attrs,omitempty"`
}

// TraceData is one finished trace: identity, wall-clock start, total
// duration, and the recorded spans in completion order.
type TraceData struct {
	ID    string     `json:"id"`
	Name  string     `json:"name"`
	Start time.Time  `json:"start"`
	DurMS float64    `json:"dur_ms"`
	Attrs Attrs      `json:"attrs,omitempty"`
	Spans []SpanData `json:"spans,omitempty"`
}

// Trace accumulates spans for one request (or one traced unit of work).
// All methods are nil-safe — code holding a *Trace from a context that
// never had one just records nothing — and safe for concurrent use:
// spans land from whichever goroutines the work fanned out to.
type Trace struct {
	rec      *Recorder
	observer func(SpanEvent)

	mu   sync.Mutex
	data TraceData // Attrs stays nil: the attrs below fold into it when the ring is read
	// attrs are the trace's annotations in first-set order, backed by
	// attrBuf until they outgrow it: a request's tenant and status cost no
	// allocation.
	attrs    []attr
	attrBuf  [2]attr
	finished bool
}

// attr is one trace annotation.
type attr struct{ k, v string }

// SpanEvent is one span-lifecycle notification delivered to a trace's
// observer: End is false when a span opens (Attrs holds its start
// attributes) and true when it records (Attrs holds the merged start+end
// attributes). Events (instantaneous spans) arrive once, with End true.
// The Attrs map is shared with the span — observers must not retain or
// mutate it.
type SpanEvent struct {
	Name  string
	Attrs Attrs
	End   bool
}

// OnSpan registers fn to be called synchronously at every span start and
// end on this trace — the hook a job-state machine derives progress from
// without the instrumented code knowing jobs exist. Set it before the
// trace is shared across goroutines (like a Memo's OnJoin, it is not
// synchronized against concurrent spans); fn itself must be safe for
// concurrent calls. Nil-safe.
func (t *Trace) OnSpan(fn func(SpanEvent)) {
	if t == nil {
		return
	}
	t.observer = fn
}

// observe delivers one span event to the observer, if any. Called outside
// t.mu so observers may inspect the trace.
func (t *Trace) observe(ev SpanEvent) {
	if t == nil || t.observer == nil {
		return
	}
	t.observer(ev)
}

// ID returns the trace ID ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.data.ID
}

// SetAttr annotates the trace itself (status code, byte count, ...).
func (t *Trace) SetAttr(k, v string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.finished {
		return
	}
	for i := range t.attrs {
		if t.attrs[i].k == k {
			t.attrs[i].v = v
			return
		}
	}
	t.attrs = append(t.attrs, attr{k, v})
}

// addSpan appends one finished span; spans arriving after Finish are
// dropped — the trace has already been snapshotted into the ring (a
// straggling hedge attempt, say, outliving the request that spawned it).
func (t *Trace) addSpan(sd SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	recorded := !t.finished
	if recorded {
		t.data.Spans = append(t.data.Spans, sd)
	}
	t.mu.Unlock()
	if recorded {
		t.observe(SpanEvent{Name: sd.Name, Attrs: sd.Attrs, End: true})
	}
}

// Finish seals the trace, computes its duration and records it into the
// Recorder that started it. Idempotent; spans and attrs arriving
// afterwards are dropped, so the ring holds the sealed trace itself, not a
// copy.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.finished {
		t.mu.Unlock()
		return
	}
	t.finished = true
	t.data.DurMS = ms(time.Since(t.data.Start))
	// The ring holds the sealed trace, so the trace drops the ring: a
	// finalizer on an object reachable from itself never runs.
	rec := t.rec
	t.rec = nil
	t.mu.Unlock()
	if rec != nil {
		rec.record(t)
	}
}

// sealed returns a finished trace as /debug/traces serves it. Nothing
// mutates a trace once Finish has set finished, so it reads without the
// lock; the spans slice is shared, the attrs map built here.
func (t *Trace) sealed() TraceData {
	td := t.data
	if len(t.attrs) > 0 {
		td.Attrs = make(Attrs, len(t.attrs))
		for _, a := range t.attrs {
			td.Attrs[a.k] = a.v
		}
	}
	return td
}

// Span is one in-flight phase of a trace. Obtain with Start; End records
// it. A nil Span (Start on an untraced context) ignores every call.
type Span struct {
	t     *Trace
	name  string
	start time.Time
	attrs Attrs
}

// ctxKey is the context key for the current *Trace.
type ctxKey struct{}

// With returns ctx carrying t. A nil t returns ctx unchanged.
func With(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// From returns the context's trace, or nil when there is none.
func From(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}

// Start opens a span named name on the context's trace, annotated with
// the given key/value pairs. On a context without a trace it returns nil,
// and every Span method on nil is a no-op — instrument unconditionally.
func Start(ctx context.Context, name string, kv ...string) *Span {
	t := From(ctx)
	if t == nil {
		return nil
	}
	s := &Span{t: t, name: name, start: time.Now()}
	s.attrs = kvAttrs(nil, kv)
	t.observe(SpanEvent{Name: name, Attrs: s.attrs})
	return s
}

// End records the span (with any extra key/value pairs) into its trace.
func (s *Span) End(kv ...string) {
	if s == nil {
		return
	}
	s.t.addSpan(SpanData{
		Name:    s.name,
		StartMS: ms(s.start.Sub(s.t.data.Start)),
		DurMS:   ms(time.Since(s.start)),
		Attrs:   kvAttrs(s.attrs, kv),
	})
}

// Event records an instantaneous (zero-duration) span — a fact worth a
// line on the timeline that has no meaningful extent of its own.
func Event(ctx context.Context, name string, kv ...string) {
	t := From(ctx)
	if t == nil {
		return
	}
	t.addSpan(SpanData{
		Name:    name,
		StartMS: ms(time.Since(t.data.Start)),
		Attrs:   kvAttrs(nil, kv),
	})
}

// kvAttrs folds alternating key/value strings into base (allocating it on
// first use); a trailing odd key is ignored.
func kvAttrs(base Attrs, kv []string) Attrs {
	for i := 0; i+1 < len(kv); i += 2 {
		if base == nil {
			base = Attrs{}
		}
		base[kv[i]] = kv[i+1]
	}
	return base
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Recorder is a fixed-size ring of finished traces. Safe for concurrent
// use; once full, each new trace overwrites the oldest.
type Recorder struct {
	mu    sync.Mutex
	ring  []*Trace // sealed traces
	next  int
	total int64
}

// NewRecorder returns a Recorder keeping the last size finished traces
// (size <= 0 uses DefaultRingSize).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Recorder{ring: make([]*Trace, 0, size)}
}

// StartTrace opens a trace named name under id. An empty or malformed id
// gets a freshly generated one, so a hostile header cannot inject
// arbitrary bytes into the trace dump. Nil-safe: a nil Recorder returns a
// nil trace and the whole instrumentation chain no-ops.
func (r *Recorder) StartTrace(name, id string) *Trace {
	if r == nil {
		return nil
	}
	if !ValidID(id) {
		id = NewID()
	}
	t := &Trace{rec: r, data: TraceData{ID: id, Name: name, Start: time.Now()}}
	t.attrs = t.attrBuf[:0]
	return t
}

// record appends one sealed trace, overwriting the oldest once the ring is
// full.
func (r *Recorder) record(t *Trace) {
	r.mu.Lock()
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, t)
	} else {
		r.ring[r.next] = t
		r.next = (r.next + 1) % cap(r.ring)
	}
	r.total++
	r.mu.Unlock()
}

// recorded reports how many traces have ever been recorded (recorded, not
// retained: the ring keeps only the most recent cap).
func (r *Recorder) recorded() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Traces returns the recorded traces at or above the duration floor,
// newest first.
func (r *Recorder) Traces(min time.Duration) []TraceData {
	if r == nil {
		return nil
	}
	floor := ms(min)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]TraceData, 0, len(r.ring))
	// Walk backwards from the newest entry: the ring is ordered at r.next
	// (oldest) through r.next-1 (newest), modulo its length.
	for i := 0; i < len(r.ring); i++ {
		idx := (r.next - 1 - i + 2*len(r.ring)) % len(r.ring)
		if t := r.ring[idx]; t.data.DurMS >= floor {
			out = append(out, t.sealed())
		}
	}
	return out
}

// NewID returns a fresh 16-hex-digit trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a constant ID keeps
		// tracing functional (IDs are correlation hints, not security).
		return "0000000000000000"
	}
	var id [16]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// ValidID reports whether id is acceptable as a propagated trace ID:
// 1..64 bytes drawn from [A-Za-z0-9_-].
func ValidID(id string) bool {
	if len(id) == 0 || len(id) > maxIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= '0' && c <= '9', c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}
