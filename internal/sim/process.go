package sim

// Process is a cooperative simulated thread of control. A process runs in
// its own goroutine but the engine guarantees mutual exclusion: control is
// explicitly handed between the engine and at most one process at a time.
type Process struct {
	eng  *Engine
	wake chan struct{}
}

// Now returns the current virtual time.
func (p *Process) Now() float64 { return p.eng.now }

// Go starts fn as a simulated process at the current virtual time.
// fn runs when the engine reaches the start event; it may call the blocking
// Process methods. The process ends when fn returns. A panic in fn is
// re-raised on the engine's goroutine, out of Engine.Run where the caller
// can recover it; the engine is then dead, its other processes left parked.
func (e *Engine) Go(fn func(p *Process)) {
	p := &Process{eng: e, wake: make(chan struct{})}
	e.nProcs++
	e.after(0, func() {
		go func() {
			defer func() {
				e.procPanic = recover()
				e.nProcs--
				e.yield <- struct{}{}
			}()
			fn(p)
		}()
		e.awaitYield()
	})
}

// awaitYield blocks the engine until the running process hands control
// back, re-raising the panic it died of, if any.
func (e *Engine) awaitYield() {
	<-e.yield
	if v := e.procPanic; v != nil {
		e.procPanic = nil
		panic(v)
	}
}

// resume transfers control from the engine to the process and waits for it
// to block again (or finish). Must only be called from engine context.
func (p *Process) resume() {
	p.wake <- struct{}{}
	p.eng.awaitYield()
}

// block transfers control from the process back to the engine and waits to
// be resumed. Must only be called from process context.
func (p *Process) block() {
	p.eng.yield <- struct{}{}
	<-p.wake
}

// Sleep suspends the process for d seconds of virtual time.
func (p *Process) Sleep(d float64) {
	if d < 0 {
		d = 0
	}
	p.eng.wake(p.eng.now+d, p)
	p.block()
}

// sleepUntil suspends the process until absolute virtual time t.
// If t is in the past it yields without advancing time.
func (p *Process) sleepUntil(t float64) {
	if t < p.eng.now {
		t = p.eng.now
	}
	p.eng.wake(t, p)
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
// Must be called from engine or process context.
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
