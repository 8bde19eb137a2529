// Package memo is the repo's one singleflight implementation: a generic
// per-key memo table where concurrent calls for the same key share a single
// execution, with an audited set of invariants every user inherits instead
// of hand-rolling.
//
// The invariants, in the order they bite:
//
//   - one flight per key: among concurrent calls for a key, exactly one
//     runs the function; the rest wait and share its result;
//   - panics become errors: a panicking function is converted to an error
//     delivered to every sharer, and the key is left usable — a render or
//     simulation that panics must not wedge its endpoint forever;
//   - errors are never cached: a failed call (cancellation included) is
//     forgotten the moment it completes, so the next caller retries instead
//     of replaying a stale failure;
//   - retention is bounded: New keeps successful values in a retained set
//     of at most MaxRetained keys, evicting the least recently used (the
//     sweep engine and stats cache, where an evicted key costs one store
//     load); NewFlight keeps none, so a key empties once its call
//     completes (the serve layer's renders, whose bodies the closed read
//     set keeps, and the trace cache's captures, which keep their own
//     byte-bounded LRU);
//   - a retained value is only the value: the call's cell — its channel,
//     refcount and run context, and through that context the request's
//     trace — is released when the call settles, so what a memo holds
//     does not grow with the requests it has served;
//   - cancellation is refcounted: a participant leaves a flight when its
//     own context is cancelled, and only the LAST departure cancels the
//     running function's context — one impatient caller among N never
//     aborts work the other N-1 are waiting on. A pinned caller is one
//     whose context is never cancelled (Do, or a context.WithoutCancel
//     context): it never leaves, so a cell it waits on always runs to
//     completion.
//
// The sweep engine, the serve layer's request coalescing and the cluster
// stats cache all run on this one type — and so, beneath them, does the
// dispatch layer, whose remote fetches run inside the engine's and the
// stats cache's cells. A coalescing bug is fixed here or it is not fixed.
package memo

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"dcbench/internal/obs"
)

// MaxRetained bounds a retaining memo's settled values. It is ten times
// the largest working set a retaining memo serves in one process (the
// figure path's 26 counter keys per machine configuration plus 33 cluster
// keys), so only client-chosen keys — /v1/jobs — are ever evicted.
const MaxRetained = 4096

// cell is one key's flight: done closes when the call completes, after
// which val/err are immutable and the cell has left the memo's map.
//
// The remaining fields implement refcounted cancellation and are guarded
// by the memo's mu. joiners counts the participants whose result delivery
// is still pending; cancel (nil once the cell settles) stops the running
// function's context; abandoned flips when the last joiner leaves before
// completion, at which point the cell is dead to new callers — they start
// a replacement instead of joining a cancelled run.
type cell[V any] struct {
	done chan struct{}
	val  V
	err  error

	joiners   int
	cancel    context.CancelFunc
	abandoned bool
}

// entry is one retained value on the memo's LRU list.
type entry[K comparable, V any] struct {
	key K
	val V
}

// Memo is a per-key singleflight table. The zero value is NOT ready;
// create with New or NewFlight. Safe for concurrent use.
type Memo[K comparable, V any] struct {
	mu     sync.Mutex
	m      map[K]*cell[V]      // in-flight calls only
	kept   map[K]*list.Element // retained values; nil for a flight group
	lru    list.List           // of *entry[K, V], most recently used first
	name   string
	onJoin func()
}

// New returns a retaining memo: successful values are kept, up to
// MaxRetained keys, and later calls for a kept key return its value
// without running the function again. Failures are never retained.
func New[K comparable, V any]() *Memo[K, V] {
	return &Memo[K, V]{m: make(map[K]*cell[V]), kept: make(map[K]*list.Element)}
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
// caller's in-flight cell records a "<name>.join" span covering its wait.
// Set before use (like OnJoin, it is not synchronized against concurrent
// Do); the default name is "memo".
func (m *Memo[K, V]) SetName(name string) { m.name = name }

func (m *Memo[K, V]) spanName() string {
	if m.name == "" {
		return "memo.join"
	}
	return m.name + ".join"
}

// Len reports how many keys hold an in-flight call or a retained value.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m) + len(m.kept)
}

// Do is DoShared for a caller with no context: it is pinned, so fn runs to
// completion once started.
func (m *Memo[K, V]) Do(key K, fn func() (V, error)) (V, error) {
	return m.DoShared(context.Background(), key, func(context.Context) (V, error) { return fn() })
}

// DoShared returns the value for key, running fn at most once among
// concurrent callers. Sharers of one flight all receive its value and
// error; values may therefore be shared across goroutines — treat them as
// read-only.
//
// fn runs on its own goroutine under a context derived from the starting
// caller's: values preserved (spans fn starts land in that caller's
// trace), cancellation severed. Every participant — starter and joiners
// alike — waits under its own ctx, and a joiner records a "<name>.join"
// span on its own trace covering the wait, so coalescing is visible in
// the timeline of the request that benefited from it. A caller whose ctx
// is cancelled leaves the flight with ctx.Err() while the others keep
// waiting; when the LAST participant leaves, fn's context is cancelled, so
// the work observes cancellation exactly when nobody wants the result
// anymore. A cancelled-and-abandoned cell is dead: later callers start a
// fresh run rather than joining a doomed one.
func (m *Memo[K, V]) DoShared(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	m.mu.Lock()
	if v, ok := m.retained(key); ok {
		m.mu.Unlock()
		return v, nil
	}
	if c, ok := m.joinable(key); ok {
		c.joiners++
		m.mu.Unlock()
		return m.await(ctx, c)
	}
	c := &cell[V]{done: make(chan struct{}), joiners: 1}
	// The run's context outlives the starter: values (trace spans) come
	// from the starting caller, cancellation only from the refcount.
	runCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c.cancel = cancel
	m.m[key] = c
	m.mu.Unlock()

	go func() {
		// settle's recover turns a panic in fn into every sharer's error;
		// unrecovered on this goroutine it would crash the process.
		defer m.settle(key, c)()
		c.val, c.err = fn(runCtx)
	}()

	select {
	case <-c.done:
		return c.val, c.err
	case <-ctx.Done():
		m.leave(c)
		var zero V
		return zero, ctx.Err()
	}
}

// Join waits for key's retained or in-flight result without ever starting
// a run: ok is false (immediately) when there is nothing to join. It is
// the shed-or-join peek — a caller with no capacity to start work can
// still collect a result someone else is already computing. The wait is
// cancellable and refcounted exactly like a DoShared join.
func (m *Memo[K, V]) Join(ctx context.Context, key K) (val V, err error, ok bool) {
	m.mu.Lock()
	if v, ok := m.retained(key); ok {
		m.mu.Unlock()
		return v, nil, true
	}
	c, joinable := m.joinable(key)
	if !joinable {
		m.mu.Unlock()
		return val, nil, false
	}
	c.joiners++
	m.mu.Unlock()
	val, err = m.await(ctx, c)
	return val, err, true
}

// retained returns key's retained value and marks it most recently used.
// Callers must hold m.mu.
func (m *Memo[K, V]) retained(key K) (V, bool) {
	el, ok := m.kept[key]
	if !ok {
		var zero V
		return zero, false
	}
	m.lru.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// joinable returns key's in-flight cell when a caller may attach to it. An
// abandoned cell (every joiner left before completion) is treated as
// absent: its run is cancelled and its error, if any, must not be shared
// with fresh callers. Callers must hold m.mu.
func (m *Memo[K, V]) joinable(key K) (*cell[V], bool) {
	c, ok := m.m[key]
	if !ok || c.abandoned {
		return nil, false
	}
	return c, true
}

// await is a joiner's wait on an in-flight cell, recorded as a join span
// on its own trace. A caller whose ctx is cancelled leaves the cell.
func (m *Memo[K, V]) await(ctx context.Context, c *cell[V]) (V, error) {
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
		var zero V
		return zero, ctx.Err()
	}
}

// settle returns the deferred cleanup for a cell whose fn is about to run:
// panic conversion, completion signalling, retention and the release of
// the run context. The identity check keeps a concurrent replacement cell
// (started after this one was abandoned) intact.
func (m *Memo[K, V]) settle(key K, c *cell[V]) func() {
	return func() {
		if rec := recover(); rec != nil {
			c.err = fmt.Errorf("memo: call panicked: %v", rec)
		}
		// Completion is signalled under the lock, in the same critical
		// section that drops the cell from the map: a caller released by
		// done who immediately asks again finds the retained value or
		// starts a fresh run, never the finished cell.
		m.mu.Lock()
		close(c.done)
		if m.m[key] == c {
			delete(m.m, key)
		}
		// A run that completed successfully despite being abandoned still
		// yields a perfectly good value, so it is retained too.
		if c.err == nil && m.kept != nil {
			m.keep(key, c.val)
		}
		cancel := c.cancel
		c.cancel = nil
		m.mu.Unlock()
		if cancel != nil {
			cancel() // release the run context's resources
		}
	}
}

// keep retains a settled value, evicting the least recently used value
// past MaxRetained. A key already retained keeps its first value, so
// every caller keeps sharing one instance. Callers must hold m.mu.
func (m *Memo[K, V]) keep(key K, val V) {
	if _, ok := m.kept[key]; ok {
		return
	}
	m.kept[key] = m.lru.PushFront(&entry[K, V]{key, val})
	if m.lru.Len() > MaxRetained {
		delete(m.kept, m.lru.Remove(m.lru.Back()).(*entry[K, V]).key)
	}
}

// leave records one participant's departure from an unfinished cell; the
// last one out cancels the run's context and marks the cell abandoned.
// Departures from completed cells are moot.
func (m *Memo[K, V]) leave(c *cell[V]) {
	var cancel context.CancelFunc
	m.mu.Lock()
	c.joiners--
	select {
	case <-c.done: // completed concurrently: nothing to cancel
	default:
		if c.joiners == 0 {
			c.abandoned = true
			cancel = c.cancel
		}
	}
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}
