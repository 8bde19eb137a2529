// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel has two layers. The lower layer is a classic event loop: a
// virtual clock and a priority queue of timestamped events, drained by
// Engine.Run. The upper layer is a cooperative process model in the style
// of SimPy: Engine.Go starts a goroutine that may block on virtual time
// (Process.Sleep), counted resources (Resource.Acquire) and bandwidth pipes
// (Pipe.Transfer). Exactly one goroutine — either the engine or a single
// process — runs at any instant, so simulations are fully deterministic
// regardless of GOMAXPROCS.
package sim

import "fmt"

// event is a scheduled callback, or, when p is set, the wake-up of a
// blocked process: a wake-up carries its process, not a closure, so
// blocking allocates nothing. Ties on time are broken by insertion
// sequence so the execution order is deterministic.
type event struct {
	at  float64
	seq uint64
	fn  func()
	p   *Process
}

// eventHeap is a binary min-heap of events by (at, seq), held by value.
// Keys are unique, so the pop order is the same for any correct heap.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
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
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// at schedules fn to run at absolute virtual time t. Scheduling in the past
// panics: it indicates a bug in the model, not a recoverable condition.
func (e *Engine) at(t float64, fn func()) { e.schedule(event{at: t, fn: fn}) }

// after schedules fn to run d seconds from now.
func (e *Engine) after(d float64, fn func()) { e.at(e.now+d, fn) }

// wake schedules blocked process p to resume at absolute virtual time t.
func (e *Engine) wake(t float64, p *Process) { e.schedule(event{at: t, p: p}) }

func (e *Engine) schedule(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.events = append(e.events, ev)
	e.events.up(len(e.events) - 1)
}

// fire pops the earliest event, advances the clock to it and runs it.
func (e *Engine) fire() {
	h := e.events
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	e.events = h[:n]
	e.events.down(0)
	e.now = ev.at
	if ev.p != nil {
		ev.p.resume()
	} else {
		ev.fn()
	}
}

// Run executes events in timestamp order until none remain.
// It panics if live processes remain blocked with no pending events
// (a deadlock in the simulated system).
func (e *Engine) Run() {
	for len(e.events) > 0 {
		e.fire()
	}
	if e.nProcs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events", e.nProcs))
	}
}
