package jobs

import (
	"context"
	"fmt"
	"testing"

	"dcbench/internal/obs"
)

// TestLifecycleLatching: progress states accumulate in history, terminal
// states latch, and the loser of a cancel/complete race is ignored.
func TestLifecycleLatching(t *testing.T) {
	r := NewRegistry(0, 8)
	j := r.New("id1", "counters", "", nil)
	if j.currentState() != StateQueued {
		t.Fatalf("new job state = %q, want queued", j.currentState())
	}
	j.setState(StateAdmitted)
	j.setState(StateAdmitted) // repeat: no history entry
	j.setState(StateSimulating)
	j.Complete([]byte("rec"))
	if j.currentState() != StateDone {
		t.Fatalf("state = %q, want done", j.currentState())
	}
	if body, ok := j.Result(); !ok || string(body) != "rec" {
		t.Fatalf("Result = %q, %v", body, ok)
	}

	// Terminal latched: neither progress nor a late cancel can move it.
	j.setState(StateStored)
	if won := j.Cancel(); won {
		t.Fatal("Cancel won against an already-done job")
	}
	if j.currentState() != StateDone {
		t.Fatalf("post-latch state = %q, want done", j.currentState())
	}

	snap := j.Snapshot()
	want := []State{StateQueued, StateAdmitted, StateSimulating, StateDone}
	if len(snap.History) != len(want) {
		t.Fatalf("history = %+v, want states %v", snap.History, want)
	}
	for i, tr := range snap.History {
		if tr.State != want[i] {
			t.Fatalf("history[%d] = %q, want %q", i, tr.State, want[i])
		}
	}
}

// TestCancelFiresContext: Cancel latches the state and cancels the job's
// run context; Complete/Fail release it too.
func TestCancelFiresContext(t *testing.T) {
	r := NewRegistry(0, 8)
	ctx, cancel := context.WithCancel(context.Background())
	j := r.New("id1", "counters", "", cancel)
	if won := j.Cancel(); !won {
		t.Fatal("first Cancel lost")
	}
	select {
	case <-ctx.Done():
	default:
		t.Fatal("Cancel did not cancel the job's context")
	}
	if _, ok := j.Result(); ok {
		t.Fatal("cancelled job reported a result")
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	j2 := r.New("id2", "cluster", "", cancel2)
	j2.Fail(500, "internal", "boom")
	if j2.currentState() != StateFailed || j2.Snapshot().Error != "boom" {
		t.Fatalf("failed job snapshot = %+v", j2.Snapshot())
	}
	select {
	case <-ctx2.Done():
	default:
		t.Fatal("Fail did not release the job's context")
	}
}

// TestSubscribe: the wakeup channel fires (collapsed) on transitions and
// the snapshot+index protocol recovers every transition exactly once.
func TestSubscribe(t *testing.T) {
	r := NewRegistry(0, 8)
	j := r.New("id1", "counters", "", nil)
	j.setState(StateAdmitted)

	snap, wake, stop := j.Subscribe()
	defer stop()
	seen := append([]Transition(nil), snap.History...)

	j.setState(StateSimulating)
	j.Complete(nil)
	// Two transitions, possibly one collapsed wakeup: drain until terminal.
	for !seen[len(seen)-1].State.Terminal() {
		select {
		case <-wake:
			cur := j.Snapshot()
			seen = append(seen, cur.History[len(seen):]...)
		default:
			t.Fatalf("no wakeup pending with history at %d/%d", len(seen), len(j.Snapshot().History))
		}
	}
	want := []State{StateQueued, StateAdmitted, StateSimulating, StateDone}
	for i, tr := range seen {
		if tr.State != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, tr.State, want[i])
		}
	}
}

// TestObserveSpanMapping: the span stream drives exactly the documented
// states — phase spans at start, admission and store writes at end.
func TestObserveSpanMapping(t *testing.T) {
	cases := []struct {
		ev   obs.SpanEvent
		want State
	}{
		{obs.SpanEvent{Name: "simulate"}, StateSimulating},
		{obs.SpanEvent{Name: "cluster.run"}, StateSimulating},
		{obs.SpanEvent{Name: "admission", Attrs: obs.Attrs{"shed": "false"}, End: true}, StateAdmitted},
		{obs.SpanEvent{Name: "backend.store", End: true}, StateStored},
		{obs.SpanEvent{Name: "store.write", End: true}, StateStored},
	}
	r := NewRegistry(0, 8)
	for i, tc := range cases {
		j := r.New(fmt.Sprintf("id%d", i), "counters", "", nil)
		j.ObserveSpan(tc.ev)
		if got := j.currentState(); got != tc.want {
			t.Errorf("span %q (end=%v) drove state %q, want %q", tc.ev.Name, tc.ev.End, got, tc.want)
		}
	}

	// Non-states: a shed admission and span starts that mean nothing.
	j := r.New("noop", "counters", "", nil)
	j.ObserveSpan(obs.SpanEvent{Name: "admission", Attrs: obs.Attrs{"shed": "true"}, End: true})
	j.ObserveSpan(obs.SpanEvent{Name: "admission"})
	j.ObserveSpan(obs.SpanEvent{Name: "render"})
	if got := j.currentState(); got != StateQueued {
		t.Errorf("unrelated spans drove state %q, want queued", got)
	}
}

// TestRegistryEviction: past the cap the oldest TERMINAL jobs are evicted;
// active jobs are never dropped, even when that overshoots the cap.
func TestRegistryEviction(t *testing.T) {
	r := NewRegistry(3, 8)
	a := r.New("a", "counters", "", nil)
	b := r.New("b", "counters", "", nil)
	a.Complete(nil)
	r.New("c", "counters", "", nil)
	r.New("d", "counters", "", nil) // over cap: evicts a (terminal), keeps actives
	if _, ok := r.Get("a"); ok {
		t.Fatal("oldest terminal job survived eviction")
	}
	for _, id := range []string{"b", "c", "d"} {
		if _, ok := r.Get(id); !ok {
			t.Fatalf("job %q missing", id)
		}
	}
	if got := r.active.Load(); got != 3 {
		t.Fatalf("active = %d, want 3", got)
	}

	// All actives: the registry overshoots rather than dropping live jobs.
	r.New("e", "counters", "", nil)
	if len(r.Jobs()) != 4 {
		t.Fatalf("registry dropped an active job: %d tracked, want 4", len(r.Jobs()))
	}
	_ = b
}

// TestRegistryRefusesPastMaxActive: New refuses a job while maxActive are
// not yet terminal, and a job that turns terminal frees its place once,
// however often it is settled.
func TestRegistryRefusesPastMaxActive(t *testing.T) {
	r := NewRegistry(0, 2)
	a := r.New("a", "counters", "", nil)
	r.New("b", "counters", "", nil)
	if j := r.New("c", "counters", "", nil); j != nil {
		t.Fatal("a third job was admitted past maxActive 2")
	}
	if _, ok := r.Get("c"); ok {
		t.Fatal("a refused job was registered")
	}
	a.Complete(nil)
	a.Cancel() // already terminal: frees nothing more
	if r.New("c", "counters", "", nil) == nil {
		t.Fatal("a finished job did not free its place")
	}
	if r.New("d", "counters", "", nil) != nil {
		t.Fatal("a settled job freed its place twice")
	}
}
