// Package sim provides a deterministic discrete-event simulation kernel.
//
// It is a cooperative process model in the style of SimPy over a virtual
// clock and a priority queue of timestamped wake-ups. Engine.Go starts a
// process that may block on virtual time (Process.Sleep), counted
// resources (Resource.Acquire) and bandwidth pipes (Pipe.Transfer). A
// process that blocks runs the event loop itself: it pops the earliest
// wake-up and, unless that is its own, hands control straight to the woken
// process and parks. Exactly one process runs at any instant, so
// simulations are fully deterministic regardless of GOMAXPROCS.
//
// Processes are goroutines, not iter.Pull coroutines: Go 1.24's race
// detector never frees the state of an ended coroutine, and the cluster
// tests end tens of thousands of processes per run.
package sim

import "fmt"

// event is the wake-up of process p, or its start if it has not started.
// Ties on time are broken by insertion sequence so the execution order is
// deterministic.
type event struct {
	at  float64
	seq uint64
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

// Engine owns the virtual clock and the pending wake-ups.
// The zero value is not usable; construct with NewEngine.
type Engine struct {
	now    float64
	seq    uint64
	events eventHeap

	done chan any   // to Run: nil when no wake-up is left, or a panic value
	live []*Process // started, unfinished processes: one goroutine each
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{done: make(chan any)}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// wake schedules process p to run at absolute virtual time t. Scheduling
// in the past panics: it indicates a bug in the model, not a recoverable
// condition.
func (e *Engine) wake(t float64, p *Process) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.seq++
	e.events = append(e.events, event{at: t, seq: e.seq, p: p})
	e.events.up(len(e.events) - 1)
}

// next pops the earliest wake-up, advancing the clock; nil if none is left.
func (e *Engine) next() *Process {
	h := e.events
	if len(h) == 0 {
		return nil
	}
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	e.events = h[:n]
	e.events.down(0)
	e.now = ev.at
	return ev.p
}

// Run runs the simulation until no wake-up is left. It starts the first
// process and waits: from then on each process hands control to the next.
// A panic in a process is re-raised here, where the caller can recover it;
// so is a deadlock, live processes blocked with no pending wake-up. Either
// way the engine is dead, and Run first unwinds its parked processes.
func (e *Engine) Run() {
	var v any
	if p := e.next(); p != nil {
		e.switchTo(p)
		v = <-e.done
	}
	if v == nil && len(e.live) > 0 {
		v = fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events", len(e.live))
	}
	if v != nil {
		e.unwind()
		panic(v)
	}
}

// unwind ends the parked processes one at a time, so a failed run leaves
// no goroutine behind: each runs its deferred calls (which must not block)
// and exits before the next is woken.
func (e *Engine) unwind() {
	for len(e.live) > 0 {
		close(e.live[len(e.live)-1].wake)
		<-e.done
	}
	e.events = nil
}
