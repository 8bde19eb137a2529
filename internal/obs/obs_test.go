package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety pins the contract that makes unconditional instrumentation
// possible: every method on a nil Trace, nil Span or nil Recorder — and
// Start/Event on a context that never carried a trace — is a no-op.
func TestNilSafety(t *testing.T) {
	var tr *Trace
	if got := tr.ID(); got != "" {
		t.Errorf("nil trace ID = %q, want empty", got)
	}
	tr.SetAttr("k", "v")
	tr.Finish()

	ctx := context.Background()
	if With(ctx, nil) != ctx {
		t.Error("With(ctx, nil) should return ctx unchanged")
	}
	if From(ctx) != nil {
		t.Error("From on a bare context should be nil")
	}
	sp := Start(ctx, "phase")
	if sp != nil {
		t.Error("Start on an untraced context should return nil")
	}
	sp.End("k", "v")
	Event(ctx, "event")

	var rec *Recorder
	if rec.StartTrace("x", "") != nil {
		t.Error("nil recorder should start nil traces")
	}
	if rec.recorded() != 0 || rec.Traces(0) != nil {
		t.Error("nil recorder should report nothing")
	}
}

// TestTraceRoundTrip drives the full life of one trace — spans with start
// and end attrs, an event, a trace attr — and checks the snapshot the
// recorder keeps.
func TestTraceRoundTrip(t *testing.T) {
	rec := NewRecorder(8)
	tr := rec.StartTrace("GET /v1/x", "")
	if !ValidID(tr.ID()) {
		t.Fatalf("generated ID %q is not valid", tr.ID())
	}
	ctx := With(context.Background(), tr)
	if From(ctx) != tr {
		t.Fatal("With/From did not round-trip the trace")
	}

	sp := Start(ctx, "simulate", "workload", "Sort")
	time.Sleep(time.Millisecond)
	sp.End("source", "live")
	Event(ctx, "trace.fallback", "reason", "budget")
	tr.SetAttr("status", "200")
	tr.Finish()

	traces := rec.Traces(0)
	if len(traces) != 1 {
		t.Fatalf("recorded %d traces, want 1", len(traces))
	}
	td := traces[0]
	if td.ID != tr.ID() || td.Name != "GET /v1/x" {
		t.Errorf("trace identity = %q %q", td.ID, td.Name)
	}
	if td.Attrs["status"] != "200" {
		t.Errorf("trace attrs = %v, want status=200", td.Attrs)
	}
	if len(td.Spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(td.Spans))
	}
	sim := td.Spans[0]
	if sim.Name != "simulate" || sim.Attrs["workload"] != "Sort" || sim.Attrs["source"] != "live" {
		t.Errorf("span 0 = %+v, want simulate with merged start+end attrs", sim)
	}
	if sim.DurMS <= 0 {
		t.Errorf("span duration %v ms, want > 0", sim.DurMS)
	}
	if ev := td.Spans[1]; ev.Name != "trace.fallback" || ev.DurMS != 0 || ev.Attrs["reason"] != "budget" {
		t.Errorf("event span = %+v", ev)
	}
	if td.DurMS < sim.DurMS {
		t.Errorf("trace dur %v ms < span dur %v ms", td.DurMS, sim.DurMS)
	}
}

// TestFinishSeals: Finish is idempotent, and spans or attrs arriving after
// it (a straggling hedge attempt outliving its request) are dropped rather
// than mutating the already-snapshotted ring entry.
func TestFinishSeals(t *testing.T) {
	rec := NewRecorder(8)
	tr := rec.StartTrace("r", "")
	ctx := With(context.Background(), tr)
	sp := Start(ctx, "early")
	sp.End()
	late := Start(ctx, "straggler")
	tr.Finish()
	tr.Finish()
	late.End()
	tr.SetAttr("after", "finish")
	Event(ctx, "too-late")

	if rec.recorded() != 1 {
		t.Fatalf("double Finish recorded %d traces, want 1", rec.recorded())
	}
	td := rec.Traces(0)[0]
	if len(td.Spans) != 1 || td.Spans[0].Name != "early" {
		t.Errorf("sealed trace spans = %+v, want just [early]", td.Spans)
	}
	if len(td.Attrs) != 0 {
		t.Errorf("sealed trace attrs = %v, want none", td.Attrs)
	}
}

// TestIDAdoption pins header propagation at the Recorder level: a valid
// inbound ID is adopted verbatim; empty or hostile IDs are replaced with a
// fresh generated one.
func TestIDAdoption(t *testing.T) {
	rec := NewRecorder(8)
	if got := rec.StartTrace("r", "e2e0123456789abc").ID(); got != "e2e0123456789abc" {
		t.Errorf("valid inbound ID not adopted: got %q", got)
	}
	for _, bad := range []string{"", "has space", "quote\"", strings.Repeat("a", 65), "ünïcode"} {
		got := rec.StartTrace("r", bad).ID()
		if got == bad || !ValidID(got) {
			t.Errorf("StartTrace(%q) ID = %q, want a fresh valid ID", bad, got)
		}
	}
	a, b := NewID(), NewID()
	if len(a) != 16 || !ValidID(a) {
		t.Errorf("NewID() = %q, want 16 valid chars", a)
	}
	if a == b {
		t.Errorf("two NewID() calls collided: %q", a)
	}
}

func TestValidID(t *testing.T) {
	for id, want := range map[string]bool{
		"abc123":                true,
		"A-Z_09":                true,
		strings.Repeat("a", 64): true,
		"":                      false,
		strings.Repeat("a", 65): false,
		"with space":            false,
		"semi;colon":            false,
		"new\nline":             false,
		"x/y":                   false,
	} {
		if got := ValidID(id); got != want {
			t.Errorf("ValidID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestRingWrap fills a small ring past capacity and checks eviction order:
// oldest traces fall out, Traces walks newest-first, recorded keeps counting.
func TestRingWrap(t *testing.T) {
	rec := NewRecorder(4)
	for i := 0; i < 7; i++ {
		rec.record(sealedTrace(TraceData{ID: fmt.Sprintf("t%d", i)}))
	}
	if rec.recorded() != 7 {
		t.Errorf("Total = %d, want 7", rec.recorded())
	}
	var got []string
	for _, td := range rec.Traces(0) {
		got = append(got, td.ID)
	}
	want := []string{"t6", "t5", "t4", "t3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("ring after wrap = %v, want %v (newest first, oldest evicted)", got, want)
	}
}

// sealedTrace is a finished trace holding td, as Finish leaves it.
func sealedTrace(td TraceData) *Trace { return &Trace{data: td, finished: true} }

// TestTracesMinFilter: the duration floor keeps only traces at least that
// slow, preserving newest-first order.
func TestTracesMinFilter(t *testing.T) {
	rec := NewRecorder(8)
	rec.record(sealedTrace(TraceData{ID: "fast", DurMS: 1}))
	rec.record(sealedTrace(TraceData{ID: "mid", DurMS: 5}))
	rec.record(sealedTrace(TraceData{ID: "slow", DurMS: 50}))
	var got []string
	for _, td := range rec.Traces(4 * time.Millisecond) {
		got = append(got, td.ID)
	}
	if fmt.Sprint(got) != fmt.Sprint([]string{"slow", "mid"}) {
		t.Errorf("Traces(4ms) = %v, want [slow mid]", got)
	}
	if n := len(rec.Traces(time.Second)); n != 0 {
		t.Errorf("Traces(1s) = %d entries, want 0", n)
	}
}

// TestConcurrentSpans hammers one trace from many goroutines (the shape of
// a dispatched request fanning across retry/hedge goroutines) and must be
// clean under -race; every span lands exactly once.
func TestConcurrentSpans(t *testing.T) {
	const workers, perWorker = 8, 50
	rec := NewRecorder(8)
	tr := rec.StartTrace("fanout", "")
	ctx := With(context.Background(), tr)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := Start(ctx, "phase", "worker", fmt.Sprint(w))
				sp.End()
				Event(ctx, "event")
				tr.SetAttr(fmt.Sprintf("w%d", w), fmt.Sprint(i))
			}
		}(w)
	}
	wg.Wait()
	tr.Finish()
	td := rec.Traces(0)[0]
	if want := workers * perWorker * 2; len(td.Spans) != want {
		t.Errorf("concurrent writers recorded %d spans, want %d", len(td.Spans), want)
	}
	if len(td.Attrs) != workers {
		t.Errorf("trace attrs = %d keys, want %d", len(td.Attrs), workers)
	}
}

// TestConcurrentRecorder: many goroutines finishing whole traces into one
// ring concurrently; the ring stays consistent and recorded exact.
func TestConcurrentRecorder(t *testing.T) {
	const workers, perWorker = 8, 100
	rec := NewRecorder(16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr := rec.StartTrace("r", "")
				Start(With(context.Background(), tr), "p").End()
				tr.Finish()
			}
		}()
	}
	wg.Wait()
	if rec.recorded() != workers*perWorker {
		t.Errorf("Total = %d, want %d", rec.recorded(), workers*perWorker)
	}
	if n := len(rec.Traces(0)); n != 16 {
		t.Errorf("retained %d traces, want full ring of 16", n)
	}
}

// TestTracesHandler drives GET /debug/traces end to end: JSON shape,
// newest-first order, the ?min_ms= floor, the ?limit= cap, and 400s on
// malformed parameters.
func TestTracesHandler(t *testing.T) {
	rec := NewRecorder(8)
	rec.record(sealedTrace(TraceData{ID: "fast", DurMS: 1}))
	rec.record(sealedTrace(TraceData{ID: "slow", DurMS: 100}))
	h := TracesHandler(rec)

	get := func(query string) (int, struct {
		Total  int64       `json:"total"`
		Traces []TraceData `json:"traces"`
	}) {
		t.Helper()
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", "/debug/traces"+query, nil))
		var doc struct {
			Total  int64       `json:"total"`
			Traces []TraceData `json:"traces"`
		}
		if w.Code == 200 {
			if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
				t.Fatalf("GET %s: bad JSON: %v\n%s", query, err, w.Body)
			}
		}
		return w.Code, doc
	}

	code, doc := get("")
	if code != 200 || doc.Total != 2 || len(doc.Traces) != 2 || doc.Traces[0].ID != "slow" {
		t.Errorf("plain dump: code=%d total=%d traces=%+v", code, doc.Total, doc.Traces)
	}
	if code, doc := get("?min_ms=50"); code != 200 || len(doc.Traces) != 1 || doc.Traces[0].ID != "slow" {
		t.Errorf("?min_ms=50 should keep only the slow trace, got %+v", doc.Traces)
	}
	if code, doc := get("?limit=1"); code != 200 || len(doc.Traces) != 1 || doc.Total != 2 {
		t.Errorf("?limit=1: code=%d total=%d len=%d", code, doc.Total, len(doc.Traces))
	}
	for _, bad := range []string{"?min_ms=nope", "?min_ms=-1", "?limit=0", "?limit=x"} {
		if code, _ := get(bad); code != 400 {
			t.Errorf("GET %s = %d, want 400", bad, code)
		}
	}
}

// TestOnSpan pins the observer contract: every span start arrives with
// End=false, every recorded span (End and Event alike) with End=true and
// the merged attributes, and span ends after Finish notify nothing.
func TestOnSpan(t *testing.T) {
	rec := NewRecorder(4)
	tr := rec.StartTrace("job", "")
	var mu sync.Mutex
	var got []SpanEvent
	tr.OnSpan(func(ev SpanEvent) {
		mu.Lock()
		// Attrs are shared with the span; copy what the assertion needs.
		got = append(got, SpanEvent{Name: ev.Name, Attrs: Attrs{"shed": ev.Attrs["shed"]}, End: ev.End})
		mu.Unlock()
	})
	ctx := With(context.Background(), tr)

	sp := Start(ctx, "admission", "shed", "maybe")
	sp.End("shed", "false")
	Event(ctx, "note")
	tr.Finish()
	// After Finish the span is dropped, so its End notifies nothing; the
	// open still does (harmless for observers whose terminal states latch).
	Start(ctx, "late").End()

	want := []SpanEvent{
		{Name: "admission", Attrs: Attrs{"shed": "maybe"}, End: false},
		{Name: "admission", Attrs: Attrs{"shed": "false"}, End: true},
		{Name: "note", Attrs: Attrs{"shed": ""}, End: true},
		{Name: "late", Attrs: Attrs{"shed": ""}, End: false},
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("observer saw %d events %+v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].End != want[i].End || got[i].Attrs["shed"] != want[i].Attrs["shed"] {
			t.Errorf("event %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
