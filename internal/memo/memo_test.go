package memo

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dcbench/internal/obs"
)

// TestRetainCachesSuccess: a retaining memo runs fn once per key and then
// serves the cached value — including the same pointer, which the sweep
// engine's memoized-counters sharing depends on.
func TestRetainCachesSuccess(t *testing.T) {
	m := New[string, *int]()
	var calls atomic.Int64
	mk := func() (*int, error) {
		calls.Add(1)
		v := 7
		return &v, nil
	}
	a, err := m.Do("k", mk)
	if err != nil || *a != 7 {
		t.Fatalf("first Do = %v, %v", a, err)
	}
	b, err := m.Do("k", mk)
	if err != nil || b != a {
		t.Fatalf("second Do returned a different pointer (%p vs %p) or err %v", b, a, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("fn ran %d times, want 1", calls.Load())
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 retained key", m.Len())
	}
}

// TestErrorsAreNeverCached: a failed call is forgotten on completion, so
// the next caller retries — in both retention modes.
func TestErrorsAreNeverCached(t *testing.T) {
	for name, m := range map[string]*Memo[string, int]{
		"retain": New[string, int](),
		"flight": NewFlight[string, int](),
	} {
		var calls int
		boom := errors.New("boom")
		if _, err := m.Do("k", func() (int, error) { calls++; return 0, boom }); err != boom {
			t.Fatalf("%s: first err = %v, want boom", name, err)
		}
		if m.Len() != 0 {
			t.Fatalf("%s: failed key retained (Len = %d)", name, m.Len())
		}
		v, err := m.Do("k", func() (int, error) { calls++; return 42, nil })
		if err != nil || v != 42 || calls != 2 {
			t.Fatalf("%s: retry = %d, %v after %d calls; want 42 on the 2nd", name, v, err, calls)
		}
	}
}

// TestFlightDropsSuccess: a non-retaining memo empties the key once the
// call completes; the next call re-runs.
func TestFlightDropsSuccess(t *testing.T) {
	m := NewFlight[string, int]()
	var calls int
	for i := 1; i <= 2; i++ {
		v, err := m.Do("k", func() (int, error) { calls++; return calls, nil })
		if err != nil || v != i {
			t.Fatalf("call %d = %d, %v", i, v, err)
		}
	}
	if m.Len() != 0 {
		t.Fatalf("flight memo retained a key (Len = %d)", m.Len())
	}
	// DoShared runs fn on its own goroutine and releases the caller through
	// the cell's done channel; by then the cell must already be out of the
	// map, so back-to-back calls never join a run that has finished.
	const n = 5000
	var runs atomic.Int64
	for i := 0; i < n; i++ {
		if _, err := m.DoShared(context.Background(), "k", func(context.Context) (int, error) {
			return int(runs.Add(1)), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := runs.Load(); got != n {
		t.Fatalf("%d sequential DoShared calls ran fn %d times: a call joined a finished run", n, got)
	}
}

// TestConcurrentCallersShareOneFlight: the joiner waits on the leader's
// call (observable via OnJoin before completion) and shares its result.
func TestConcurrentCallersShareOneFlight(t *testing.T) {
	m := New[string, int]()
	started := make(chan struct{})
	release := make(chan struct{})
	joined := make(chan struct{})
	m.OnJoin(func() { close(joined) })

	var wg sync.WaitGroup
	wg.Add(2)
	vals := make([]int, 2)
	errs := make([]error, 2)
	go func() {
		defer wg.Done()
		vals[0], errs[0] = m.Do("k", func() (int, error) {
			close(started)
			<-release
			return 99, nil
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		vals[1], errs[1] = m.Do("k", func() (int, error) {
			t.Error("joiner must share the leader's call, not start its own")
			return 0, nil
		})
	}()
	<-joined
	close(release)
	wg.Wait()
	for i := range vals {
		if errs[i] != nil || vals[i] != 99 {
			t.Fatalf("caller %d = %d, %v; want the shared 99", i, vals[i], errs[i])
		}
	}
}

// TestPanicDoesNotWedge: a panicking call surfaces as an error to every
// sharer and leaves the key usable — without cleanup under defer, one
// panic would hang the key forever.
func TestPanicDoesNotWedge(t *testing.T) {
	m := NewFlight[string, []byte]()
	started := make(chan struct{})
	release := make(chan struct{})
	joined := make(chan struct{})
	m.OnJoin(func() { close(joined) })

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make([]error, 2)
	go func() {
		defer wg.Done()
		_, errs[0] = m.Do("k", func() ([]byte, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	go func() {
		defer wg.Done()
		_, errs[1] = m.Do("k", func() ([]byte, error) {
			t.Error("joiner must share the first call, not start its own")
			return nil, nil
		})
	}()
	<-joined
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("caller %d error = %v, want the converted panic", i, err)
		}
	}

	// The key must be free again.
	body, err := m.Do("k", func() ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(body) != "ok" {
		t.Fatalf("post-panic call = %q, %v; the key is wedged", body, err)
	}
}

// TestDoSharedJoinSpan pins the observability contract of DoShared: the
// executing caller's fn receives a context carrying that caller's trace,
// and a caller that joins the in-flight cell records a "<name>.join" span
// on its own trace covering the wait — while the executor's trace gets no
// join span.
func TestDoSharedJoinSpan(t *testing.T) {
	m := NewFlight[string, int]()
	m.SetName("sweep")
	rec := obs.NewRecorder(8)

	execTr := rec.StartTrace("executor", "")
	joinTr := rec.StartTrace("joiner", "")
	started := make(chan struct{})
	release := make(chan struct{})
	joined := make(chan struct{})
	m.OnJoin(func() { close(joined) })

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		m.DoShared(obs.With(context.Background(), execTr), "k", func(ctx context.Context) (int, error) {
			// Spans started inside fn land in the executing caller's trace.
			obs.Start(ctx, "simulate").End()
			close(started)
			<-release
			return 1, nil
		})
	}()
	go func() {
		defer wg.Done()
		<-started
		v, err := m.DoShared(obs.With(context.Background(), joinTr), "k", func(context.Context) (int, error) {
			t.Error("joiner must not run fn")
			return 0, nil
		})
		if v != 1 || err != nil {
			t.Errorf("joiner got %d, %v", v, err)
		}
	}()
	<-joined
	close(release)
	wg.Wait()
	execTr.Finish()
	joinTr.Finish()

	spans := func(id string) []string {
		var names []string
		for _, td := range rec.Traces(0) {
			if td.ID == id {
				for _, sp := range td.Spans {
					names = append(names, sp.Name)
				}
			}
		}
		return names
	}
	if got := spans(execTr.ID()); len(got) != 1 || got[0] != "simulate" {
		t.Errorf("executor spans = %v, want [simulate]", got)
	}
	if got := spans(joinTr.ID()); len(got) != 1 || got[0] != "sweep.join" {
		t.Errorf("joiner spans = %v, want [sweep.join]", got)
	}
}

// TestDoSharedRetainedValueNoJoinSpan: returning an already-retained value is
// not coalescing — no join span is recorded for it.
func TestDoSharedRetainedValueNoJoinSpan(t *testing.T) {
	m := New[string, int]()
	rec := obs.NewRecorder(8)
	if _, err := m.Do("k", func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	tr := rec.StartTrace("warm", "")
	if v, err := m.DoShared(obs.With(context.Background(), tr), "k", func(context.Context) (int, error) {
		return 0, errors.New("must not run")
	}); v != 1 || err != nil {
		t.Fatalf("retained read = %d, %v", v, err)
	}
	tr.Finish()
	if td := rec.Traces(0)[0]; len(td.Spans) != 0 {
		t.Errorf("warm read recorded spans %+v, want none", td.Spans)
	}
}
