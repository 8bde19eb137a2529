// Package memo is the repo's one singleflight implementation: a generic
// per-key memo table where concurrent calls for the same key share a single
// execution, with an audited set of invariants every user inherits instead
// of hand-rolling.
//
// The invariants, in the order they bite:
//
//   - one flight per key: among concurrent Do calls for a key, exactly one
//     runs the function; the rest wait and share its result;
//   - panics become errors: a panicking function is converted to an error
//     delivered to every sharer, and the key is left usable — a render or
//     simulation that panics must not wedge its endpoint forever;
//   - errors are never cached: a failed call (cancellation included) is
//     forgotten the moment it completes, so the next caller retries instead
//     of replaying a stale failure;
//   - retention is the only knob: New keeps successful values for the
//     memo's lifetime (the sweep engine's and stats cache's semantics),
//     NewFlight drops them once the last sharer returns (the serve layer's
//     request coalescing, where the layer below is already a cache);
//   - cancellation is refcounted: DoShared participants leave a flight when
//     their own context is cancelled, and only the LAST departure cancels
//     the running function's context — one impatient caller among N never
//     aborts work the other N-1 are waiting on. Do/DoCtx participants are
//     pinned (they never leave), so blocking callers keep their current
//     semantics even when sharing a cell with cancellable ones.
//
// The sweep engine, the serve layer's request coalescing, the cluster
// stats cache and the dispatch layer's remote fetches all run on this one
// type — a coalescing bug is fixed here or it is not fixed.
package memo

import (
	"context"
	"fmt"
	"sync"

	"dcbench/internal/obs"
)

// cell is one key's flight: done closes when the call completes, after
// which val/err are immutable.
//
// The remaining fields implement refcounted cancellation and are guarded
// by the memo's mu. joiners counts the participants whose result delivery
// is still pending; cancel (non-nil only for DoShared-started cells) stops
// the running function's context; abandoned flips when the last joiner
// leaves before completion, at which point the cell is dead to new
// callers — they start a replacement instead of joining a cancelled run.
type cell[V any] struct {
	done chan struct{}
	val  V
	err  error

	joiners   int
	cancel    context.CancelFunc
	abandoned bool
}

// Memo is a per-key singleflight table. The zero value is NOT ready;
// create with New or NewFlight. Safe for concurrent use.
type Memo[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]*cell[V]
	retain bool
	name   string
	onJoin func()
}

// New returns a retaining memo: successful values are cached for the
// memo's lifetime and later calls for the key return them without running
// the function again. Failures are never retained.
func New[K comparable, V any]() *Memo[K, V] {
	return &Memo[K, V]{m: make(map[K]*cell[V]), retain: true}
}

// NewFlight returns a non-retaining memo — a pure flight group: the key
// empties as soon as its call completes, so only genuinely concurrent
// callers share a result. Use it when the layer below is already a cache.
func NewFlight[K comparable, V any]() *Memo[K, V] {
	return &Memo[K, V]{m: make(map[K]*cell[V])}
}

// OnJoin registers a callback fired each time a caller joins a key's
// in-flight call instead of starting its own — at join time, not
// completion, so coalescing is observable while the shared call is still
// running. Returning a retained value does not fire it. Set before use;
// OnJoin is not synchronized against concurrent Do.
func (m *Memo[K, V]) OnJoin(fn func()) { m.onJoin = fn }

// SetName labels the memo for tracing: a caller that joins another
// caller's in-flight cell through DoCtx records a "<name>.join" span
// covering its wait. Set before use (like OnJoin, it is not synchronized
// against concurrent Do); the default name is "memo".
func (m *Memo[K, V]) SetName(name string) { m.name = name }

func (m *Memo[K, V]) spanName() string {
	if m.name == "" {
		return "memo.join"
	}
	return m.name + ".join"
}

// Len reports how many keys currently hold a cell (in-flight or retained).
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// Do returns the value for key, running fn at most once among concurrent
// callers. Sharers of one flight all receive its value and error; values
// may therefore be shared across goroutines — treat them as read-only.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	return m.DoCtx(context.Background(), key, func(context.Context) (V, error) { return fn() })
}

// DoCtx is Do with request-context plumbing for observability: fn runs
// with the executing caller's ctx (so spans it starts land in that
// caller's trace), and a caller that instead joins an in-flight cell
// records a "<name>.join" span on its own trace covering the wait —
// coalescing is visible in the timeline of the request that benefited
// from it. The context carries values only; like Do, a caller's
// cancellation does not abort the shared call.
func (m *Memo[K, V]) DoCtx(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	m.mu.Lock()
	if c, ok := m.joinable(key); ok {
		// A DoCtx joiner is pinned: it increments the refcount and never
		// leaves, so a cell with a DoCtx participant can never be cancelled
		// out from under it by DoShared joiners departing.
		c.joiners++
		m.mu.Unlock()
		select {
		case <-c.done: // retained value: no coalescing happened
		default:
			if m.onJoin != nil {
				m.onJoin()
			}
			sp := obs.Start(ctx, m.spanName())
			<-c.done
			sp.End()
		}
		return c.val, c.err
	}
	c := &cell[V]{done: make(chan struct{}), joiners: 1}
	m.m[key] = c
	m.mu.Unlock()

	// Cleanup must survive a panicking fn (net/http recovers handler
	// panics): without the defer, every sharer — and all future callers of
	// the key — would block forever on a done channel nobody closes.
	func() {
		defer m.settle(key, c)()
		c.val, c.err = fn(ctx)
	}()
	return c.val, c.err
}

// DoShared is DoCtx with refcounted cancellation: fn runs on its own
// goroutine under a context derived from the starting caller's (values
// preserved, cancellation severed), and every participant — starter and
// joiners alike — waits under its own ctx. A caller whose ctx is cancelled
// leaves the flight with ctx.Err() while the others keep waiting; when the
// LAST participant leaves, the function's context is cancelled, so the
// underlying work observes cancellation exactly when nobody wants the
// result anymore. A cancelled-and-abandoned cell is dead: later callers
// start a fresh run rather than joining a doomed one.
//
// DoCtx/Do participants on the same key are pinned joiners (they never
// leave), so mixing the two is safe: a DoShared canceller cannot abort a
// run a blocking caller is still waiting on.
func (m *Memo[K, V]) DoShared(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	var zero V
	m.mu.Lock()
	if c, ok := m.joinable(key); ok {
		c.joiners++
		m.mu.Unlock()
		select {
		case <-c.done: // retained value: no coalescing happened
			return c.val, c.err
		default:
		}
		if m.onJoin != nil {
			m.onJoin()
		}
		sp := obs.Start(ctx, m.spanName())
		select {
		case <-c.done:
			sp.End()
			return c.val, c.err
		case <-ctx.Done():
			sp.End("cancelled", "true")
			m.leave(c)
			return zero, ctx.Err()
		}
	}
	c := &cell[V]{done: make(chan struct{}), joiners: 1}
	// The run's context outlives the starter: values (trace spans) come
	// from the starting caller, cancellation only from the refcount.
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c.cancel = cancel
	m.m[key] = c
	m.mu.Unlock()

	go func() {
		defer m.settle(key, c)()
		c.val, c.err = fn(runCtx)
	}()

	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		m.leave(c)
		return zero, ctx.Err()
	}
}

// Join waits for key's retained or in-flight result without ever starting
// a run: ok is false (immediately) when there is nothing to join. It is
// the shed-or-join peek — a caller with no capacity to start work can
// still collect a result someone else is already computing. The wait is
// cancellable and refcounted exactly like a DoShared join.
func (m *Memo[K, V]) Join(ctx context.Context, key K) (val V, err error, ok bool) {
	var zero V
	m.mu.Lock()
	c, joinable := m.joinable(key)
	if !joinable {
		m.mu.Unlock()
		return zero, nil, false
	}
	c.joiners++
	m.mu.Unlock()
	select {
	case <-c.done: // retained value
		return c.val, c.err, true
	default:
	}
	if m.onJoin != nil {
		m.onJoin()
	}
	sp := obs.Start(ctx, m.spanName())
	select {
	case <-c.done:
		sp.End()
		return c.val, c.err, true
	case <-ctx.Done():
		sp.End("cancelled", "true")
		m.leave(c)
		return zero, ctx.Err(), true
	}
}

// joinable returns key's cell when a caller may attach to it. An abandoned
// cell (every joiner left before completion) is treated as absent: its run
// is cancelled and its error, if any, must not be shared with fresh
// callers. Callers must hold m.mu.
func (m *Memo[K, V]) joinable(key K) (*cell[V], bool) {
	c, ok := m.m[key]
	if !ok || c.abandoned {
		return nil, false
	}
	return c, true
}

// settle returns the deferred cleanup for a cell whose fn is about to run:
// panic conversion, completion signalling, and map maintenance. The
// identity check keeps a concurrent replacement cell (started after this
// one was abandoned) intact.
func (m *Memo[K, V]) settle(key K, c *cell[V]) func() {
	return func() {
		if rec := recover(); rec != nil {
			c.err = fmt.Errorf("memo: call panicked: %v", rec)
		}
		// Completion is signalled under the lock, in the same critical
		// section that drops a flight-mode cell from the map: a caller
		// released by done who immediately asks again must find the cell
		// gone and start a fresh run, not join the finished one.
		m.mu.Lock()
		close(c.done)
		if c.err == nil {
			// A run that completed successfully despite being abandoned
			// still yields a perfectly good value; un-abandon it so
			// retained-mode lookups serve it.
			c.abandoned = false
		}
		// Drop failures always (the next caller retries) and successes
		// in flight mode.
		if (c.err != nil || !m.retain) && m.m[key] == c {
			delete(m.m, key)
		}
		m.mu.Unlock()
		if c.cancel != nil {
			c.cancel() // release the run context's resources
		}
	}
}

// leave records one cancellable participant's departure from an unfinished
// cell; the last one out cancels the run's context and marks the cell
// abandoned. Departures from completed cells are moot.
func (m *Memo[K, V]) leave(c *cell[V]) {
	var cancel context.CancelFunc
	m.mu.Lock()
	c.joiners--
	select {
	case <-c.done: // completed concurrently: nothing to cancel
	default:
		if c.joiners == 0 && c.cancel != nil {
			c.abandoned = true
			cancel = c.cancel
		}
	}
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}
