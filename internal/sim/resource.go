package sim

// Resource is a counted FIFO resource (e.g. CPU cores, task slots).
// Acquire blocks the calling process until a unit is free; units are
// granted strictly in request order.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  []*Process

	// Busy accumulates unit-seconds of utilisation for reporting.
	Busy      float64
	lastStamp float64
}

// NewResource creates a resource with the given number of units.
func NewResource(e *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

func (r *Resource) stamp() {
	r.Busy += float64(r.inUse) * (r.eng.now - r.lastStamp)
	r.lastStamp = r.eng.now
}

// Acquire blocks p until a unit is available and takes it.
func (r *Resource) Acquire(p *Process) {
	if r.inUse < r.capacity && len(r.waiters) == 0 {
		r.stamp()
		r.inUse++
		return
	}
	r.waiters = append(r.waiters, p)
	p.block()
	// The releaser incremented inUse on our behalf before waking us.
}

// Release returns a unit, handing it to the oldest waiter if any.
func (r *Resource) Release() {
	r.stamp()
	r.inUse--
	if r.inUse < 0 {
		panic("sim: resource released more than acquired")
	}
	if len(r.waiters) > 0 {
		next := r.waiters[0]
		r.waiters = r.waiters[1:]
		r.inUse++ // transfer the unit to next before it runs
		r.eng.wake(r.eng.now, next)
	}
}

// BusySeconds returns accumulated unit-seconds of utilisation.
func (r *Resource) BusySeconds() float64 {
	r.stamp()
	return r.Busy
}
