package sim

import "runtime"

// Process is a cooperative simulated thread of control: a goroutine that
// runs only while it holds control, from its wake-up until it blocks or
// finishes.
type Process struct {
	eng  *Engine
	fn   func(p *Process) // the body, until the process starts
	wake chan bool        // where its goroutine parks; closed to unwind it
	slot int              // index in eng.live while started
}

// Now returns the current virtual time.
func (p *Process) Now() float64 { return p.eng.now }

// Go starts fn as a simulated process at the current virtual time; the
// process ends when fn returns. A process due to start has no goroutine
// yet: the goroutine of one that has just finished runs it directly, one
// that blocks starts a goroutine for it. A panic in fn is re-raised out of
// Engine.Run, where the caller can recover it.
func (e *Engine) Go(fn func(p *Process)) {
	e.wake(e.now, &Process{eng: e, fn: fn})
}

// run is a process goroutine: it runs p and then each process due to start
// that is the next wake-up, and ends by handing control on. A panic, or
// Run's unwind, ends it early with the panic value sent to Run.
func (e *Engine) run(p *Process) {
	wake, ok := make(chan bool, 1), false
	defer func() {
		if !ok {
			e.unlink(p)
			e.done <- recover()
		}
	}()
	for {
		fn := p.fn
		p.fn, p.wake, p.slot = nil, wake, len(e.live)
		e.live = append(e.live, p)
		fn(p)
		e.unlink(p)
		if p = e.next(); p == nil || p.fn == nil {
			ok = true
			e.switchTo(p)
			return
		}
	}
}

// unlink removes a finished or unwound process from e.live.
func (e *Engine) unlink(p *Process) {
	last := e.live[len(e.live)-1]
	e.live[p.slot], last.slot = last, p.slot
	e.live = e.live[:len(e.live)-1]
}

// switchTo hands control to p, or to Run when p is nil.
func (e *Engine) switchTo(p *Process) {
	switch {
	case p == nil:
		e.done <- nil
	case p.fn != nil:
		go e.run(p)
	default:
		p.wake <- true
	}
}

// block runs the event loop on p's goroutine until p's own wake-up: it pops
// the next one and, unless that is p's, hands control to it and parks.
func (p *Process) block() {
	e := p.eng
	if q := e.next(); q != p {
		e.switchTo(q)
		if !<-p.wake {
			runtime.Goexit() // unwound by Run
		}
	}
}

// Sleep suspends the process for d seconds of virtual time.
func (p *Process) Sleep(d float64) { p.sleepUntil(p.eng.now + d) }

// sleepUntil suspends the process until absolute virtual time t.
// If t is in the past it yields without advancing time.
func (p *Process) sleepUntil(t float64) {
	p.eng.wake(max(t, p.eng.now), p)
	p.block()
}

// WaitGroup counts outstanding simulated activities. Unlike sync.WaitGroup
// it is engine-synchronized: Wait blocks the calling process in virtual
// time until the count reaches zero.
type WaitGroup struct {
	n       int
	waiters []*Process
}

// Add increments the counter by delta.
func (wg *WaitGroup) Add(delta int) { wg.n += delta }

// Done decrements the counter, waking all waiters when it reaches zero.
// Must be called from process context.
func (wg *WaitGroup) Done(e *Engine) {
	wg.n--
	if wg.n < 0 {
		panic("sim: WaitGroup counter negative")
	}
	if wg.n == 0 {
		ws := wg.waiters
		wg.waiters = nil
		for _, w := range ws {
			e.wake(e.now, w)
		}
	}
}

// Wait blocks the process until the counter is zero.
func (wg *WaitGroup) Wait(p *Process) {
	if wg.n == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.block()
}
