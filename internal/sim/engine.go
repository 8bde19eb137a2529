// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel has two layers. The lower layer is a classic event loop: a
// virtual clock and a priority queue of timestamped callbacks (Engine.At,
// Engine.After, Engine.Run). The upper layer is a cooperative process model
// in the style of SimPy: Engine.Go starts a goroutine that may block on
// virtual time (Process.Sleep), counted resources (Resource.Acquire) and
// bandwidth pipes (Pipe.Transfer). Exactly one goroutine — either the engine
// or a single process — runs at any instant, so simulations are fully
// deterministic regardless of GOMAXPROCS.
package sim

import (
	"container/heap"
	"fmt"
)

// event is a scheduled callback. Ties on time are broken by insertion
// sequence so the execution order is deterministic.
type event struct {
	at  float64
	seq uint64
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Engine owns the virtual clock and the pending event set.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap

	// yield is the control-transfer channel for the process layer: a
	// process hands control back to the engine by sending on it.
	yield     chan struct{}
	procPanic any // a finished process's panic value, handed over with its last yield
	nProcs    int // live processes, for deadlock detection
	blocked   int // processes blocked on a resource (not on an event)
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Pending reports the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a bug in the model, not a recoverable condition.
func (e *Engine) At(t float64, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d seconds from now.
func (e *Engine) After(d float64, fn func()) { e.At(e.now+d, fn) }

// Run executes events in timestamp order until none remain.
// It panics if live processes remain blocked with no pending events
// (a deadlock in the simulated system).
func (e *Engine) Run() {
	for len(e.events) > 0 {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		ev.fn()
	}
	if e.nProcs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events", e.nProcs))
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t.
func (e *Engine) RunUntil(t float64) {
	for len(e.events) > 0 && e.events[0].at <= t {
		ev := heap.Pop(&e.events).(*event)
		e.now = ev.at
		ev.fn()
	}
	if t > e.now {
		e.now = t
	}
}
