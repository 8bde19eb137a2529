package sim

// Pipe models a serial bandwidth resource such as a disk or a NIC.
// Transfers are serviced FIFO at a fixed byte rate plus a fixed per-op
// latency; concurrent transfers queue behind one another, which yields the
// classic saturation behaviour of a single device without per-tick
// simulation.
type Pipe struct {
	eng       *Engine
	bytesPS   float64 // service rate, bytes per second
	latency   float64 // fixed per-operation latency, seconds
	busyUntil float64

	// Counters for reporting.
	Ops   int64
	Bytes int64
}

// NewPipe creates a pipe with the given bandwidth (bytes/second) and fixed
// per-operation latency (seconds).
func NewPipe(e *Engine, bytesPerSecond, latency float64) *Pipe {
	if bytesPerSecond <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{eng: e, bytesPS: bytesPerSecond, latency: latency}
}

// finish computes the completion time of a transfer of n bytes submitted
// now, updating the queue tail and counters.
func (pp *Pipe) finish(n int64) float64 {
	start := pp.busyUntil
	if pp.eng.now > start {
		start = pp.eng.now
	}
	dur := pp.latency + float64(n)/pp.bytesPS
	pp.busyUntil = start + dur
	pp.Ops++
	pp.Bytes += n
	return pp.busyUntil
}

// Transfer moves n bytes through the pipe, blocking the process until the
// transfer completes.
func (pp *Pipe) Transfer(p *Process, n int64) {
	p.sleepUntil(pp.finish(n))
}
