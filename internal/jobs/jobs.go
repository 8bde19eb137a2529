// Package jobs tracks the lifecycle of asynchronous compute jobs: a
// registry of per-job state machines the serve layer exposes at
// GET /v1/jobs/{id} and cancels at DELETE /v1/jobs/{id}.
//
// A job moves through
//
//	queued → admitted → simulating → stored → done | failed | cancelled
//
// with the middle states derived from the existing obs span
// instrumentation (ObserveSpan maps span starts/ends to states), so the
// simulator and store report progress without knowing jobs exist.
// Terminal states latch: a cancellation that races a completion is
// decided by whichever lands first, and the loser is ignored.
package jobs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"dcbench/internal/obs"
)

// State is one position in the job lifecycle.
type State string

const (
	StateQueued     State = "queued"     // accepted, waiting for an admission slot
	StateAdmitted   State = "admitted"   // holds a slot, work not yet phase-attributed
	StateSimulating State = "simulating" // simulating (a counters trace or a cluster run)
	StateStored     State = "stored"     // result written through to the store
	StateDone       State = "done"       // terminal: result available
	StateFailed     State = "failed"     // terminal: Error() explains
	StateCancelled  State = "cancelled"  // terminal: cancelled by DELETE or disconnect
)

// Terminal reports whether s ends the lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Transition is one recorded state change.
type Transition struct {
	State State     `json:"state"`
	At    time.Time `json:"at"`
}

// Snapshot is a job's externally visible state — the JSON body of
// GET /v1/jobs/{id}.
type Snapshot struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Tenant is the id of the tenant that submitted the job ("" for
	// anonymous submissions). The serve layer scopes job visibility to
	// it, so a snapshot only ever reaches its own tenant.
	Tenant  string    `json:"tenant,omitempty"`
	State   State     `json:"state"`
	Created time.Time `json:"created"`
	// DurMS is created → terminal transition for finished jobs, created →
	// now for running ones.
	DurMS   float64      `json:"dur_ms"`
	Error   string       `json:"error,omitempty"`
	History []Transition `json:"history"`
}

// Job is one tracked job. Create through Registry.New; all methods are
// safe for concurrent use.
type Job struct {
	id      string
	kind    string
	tenant  string
	created time.Time
	cancel  context.CancelFunc
	active  *atomic.Int64 // the registry's active count, left once terminal

	mu       sync.Mutex
	state    State
	history  []Transition
	errMsg   string
	errCode  string // the failure's stable error code
	errHTTP  int    // the failure's HTTP status
	result   []byte
	finished time.Time
	subs     map[chan struct{}]struct{}
}

// Tenant returns the id of the tenant that submitted the job ("" for
// anonymous submissions).
func (j *Job) Tenant() string { return j.tenant }

// setState records a state transition. Repeats of the current state and
// any transition after a terminal state are ignored, so span-derived
// progress can never resurrect a cancelled or completed job.
func (j *Job) setState(s State) {
	j.mu.Lock()
	j.setStateLocked(s)
	j.mu.Unlock()
}

func (j *Job) setStateLocked(s State) {
	if j.state == s || j.state.Terminal() {
		return
	}
	j.state = s
	now := time.Now()
	j.history = append(j.history, Transition{State: s, At: now})
	if s.Terminal() {
		j.finished = now
		j.active.Add(-1)
		if j.cancel != nil {
			// A finished job releases its context either way: Complete/Fail
			// free the resources, Cancel stops the work.
			j.cancel()
		}
	}
	for ch := range j.subs {
		select {
		case ch <- struct{}{}:
		default: // subscriber already has a pending wakeup
		}
	}
}

// Complete marks the job done with its result record (no-op once
// terminal).
func (j *Job) Complete(result []byte) {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.result = result
	}
	j.setStateLocked(StateDone)
	j.mu.Unlock()
}

// Fail marks the job failed with the HTTP status, stable error code and
// message its result answers (no-op once terminal).
func (j *Job) Fail(status int, code, msg string) {
	j.mu.Lock()
	if !j.state.Terminal() {
		j.errHTTP, j.errCode, j.errMsg = status, code, msg
	}
	j.setStateLocked(StateFailed)
	j.mu.Unlock()
}

// Failure returns the HTTP status and error code a failed job was given
// (0 and "" otherwise); Snapshot's Error holds the message.
func (j *Job) Failure() (status int, code string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.errHTTP, j.errCode
}

// Cancel moves the job to cancelled and cancels its run context. It
// reports whether this call won — false when the job was already
// terminal.
func (j *Job) Cancel() bool {
	j.mu.Lock()
	won := !j.state.Terminal()
	j.setStateLocked(StateCancelled)
	j.mu.Unlock()
	return won
}

// Result returns the finished job's record bytes; ok is false unless the
// job is done.
func (j *Job) Result() (body []byte, ok bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// currentState returns the job's current state.
func (j *Job) currentState() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Snapshot returns the job's externally visible state. The history slice
// is a copy — safe to encode after the lock is gone.
func (j *Job) Snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Job) snapshotLocked() Snapshot {
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return Snapshot{
		ID:      j.id,
		Kind:    j.kind,
		Tenant:  j.tenant,
		State:   j.state,
		Created: j.created,
		DurMS:   float64(end.Sub(j.created).Nanoseconds()) / 1e6,
		Error:   j.errMsg,
		History: append([]Transition(nil), j.history...),
	}
}

// Subscribe returns the job's snapshot so far plus a wakeup channel that
// receives (with collapsing: one pending wakeup at most) after every
// subsequent transition, and a stop function releasing the subscription.
// The SSE handler's pattern: send snap.History, then on each wakeup
// re-Snapshot and send the transitions beyond the last index seen.
func (j *Job) Subscribe() (snap Snapshot, wake <-chan struct{}, stop func()) {
	ch := make(chan struct{}, 1)
	j.mu.Lock()
	if j.subs == nil {
		j.subs = make(map[chan struct{}]struct{})
	}
	j.subs[ch] = struct{}{}
	snap = j.snapshotLocked()
	j.mu.Unlock()
	return snap, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// ObserveSpan derives lifecycle states from the job's obs span stream —
// the obs.Trace.OnSpan hook. Phase spans mark their state when they open
// (a long simulation is "simulating" while it runs, not after); the
// admission span marks admitted when it closes un-shed, and a store write
// marks stored when it completes.
func (j *Job) ObserveSpan(ev obs.SpanEvent) {
	if ev.End {
		switch ev.Name {
		case "admission":
			if ev.Attrs["shed"] == "false" {
				j.setState(StateAdmitted)
			}
		case "backend.store", "store.write":
			j.setState(StateStored)
		}
		return
	}
	switch ev.Name {
	case "simulate", "cluster.run":
		j.setState(StateSimulating)
	}
}

// Registry is the process-wide table of tracked jobs. It refuses a new job
// while maxActive jobs are not yet terminal, and it evicts the oldest
// terminal jobs once it grows past its cap (active jobs are never
// evicted). Safe for concurrent use.
type Registry struct {
	cap, maxActive int

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []*Job // creation order, for eviction
	active atomic.Int64
}

// defaultCap is how many jobs a Registry retains when the caller does not
// say otherwise: enough history for a polling client to find a finished
// job minutes later without letting the table grow without bound.
const defaultCap = 1024

// NewRegistry returns an empty registry admitting at most maxActive
// non-terminal jobs and keeping at most cap jobs (cap <= 0 uses
// defaultCap).
func NewRegistry(cap, maxActive int) *Registry {
	if cap <= 0 {
		cap = defaultCap
	}
	return &Registry{cap: cap, maxActive: maxActive, jobs: make(map[string]*Job)}
}

// New creates, registers and returns a job in state queued, or returns nil
// when maxActive jobs are already active. id should be the job's obs trace
// ID so one identifier names both the job and its timeline; tenant ("" for
// anonymous) is the submitting tenant's id, the scope the serve layer
// restricts the job's visibility to; cancel (may be nil) is invoked when
// the job is cancelled or finishes.
func (r *Registry) New(id, kind, tenant string, cancel context.CancelFunc) *Job {
	now := time.Now()
	j := &Job{id: id, kind: kind, tenant: tenant, created: now, cancel: cancel,
		active:  &r.active,
		state:   StateQueued,
		history: []Transition{{State: StateQueued, At: now}},
	}
	// The count rises only here, under mu, so the check and the insert
	// are one step; a job turning terminal lowers it without the lock.
	r.mu.Lock()
	if r.active.Load() >= int64(r.maxActive) {
		r.mu.Unlock()
		return nil
	}
	r.active.Add(1)
	r.jobs[id] = j
	r.order = append(r.order, j)
	if len(r.order) > r.cap {
		r.evictLocked()
	}
	r.mu.Unlock()
	return j
}

// evictLocked drops the oldest terminal jobs until the registry fits its
// cap (or only active jobs remain).
func (r *Registry) evictLocked() {
	kept := r.order[:0]
	excess := len(r.order) - r.cap
	for _, j := range r.order {
		if excess > 0 && j.currentState().Terminal() {
			delete(r.jobs, j.id)
			excess--
			continue
		}
		kept = append(kept, j)
	}
	r.order = kept
}

// Get returns the job with the given id.
func (r *Registry) Get(id string) (*Job, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	j, ok := r.jobs[id]
	return j, ok
}

// Jobs returns every tracked job in creation order.
func (r *Registry) Jobs() []*Job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Job(nil), r.order...)
}
