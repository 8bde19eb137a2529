// Package sweep is the concurrent characterization pipeline: it fans a set
// of workload traces out over a worker pool of reusable core models,
// returning counter files in deterministic input order.
//
// The paper's evaluation is one big sweep — 26 registry workloads through
// the uarch core model for Figures 3-12 — and the engine makes that sweep
// scale with the host instead of running on one goroutine. Three mechanisms
// carry the speedup without changing results:
//
//   - a bounded worker pool (Each) hands jobs to GOMAXPROCS workers by
//     index, so results land in registry order no matter which worker
//     finishes first;
//   - one free list of uarch.Core instances per engine, as long as the
//     compute budget, recycled with (*Core).Reset into whatever config the
//     next job runs at, so workers reuse ~1.6 MB of simulated
//     cache/TLB/predictor state instead of reallocating it per workload;
//   - a memo table keyed by (workload name, profile, config fingerprint,
//     trace length), so repeated figure and table renders share one sweep
//     instead of re-simulating. It retains the memo.MaxRetained most
//     recently used results; an evicted key is reloaded from the
//     MemoBackend when one is installed.
//
// Fan-out is per call, concurrency is per process: however many runs and
// cluster sweeps are fanned out at once, at most one simulation or cluster
// cell per core runs at a time (Acquire), so memory holds that many working
// sets and no more.
//
// Every job runs its own tracer with its own seeded RNG against a core that
// Reset has returned to the fresh-core state, so at a fixed seed the
// parallel sweep is bit-identical to the serial one (the equivalence test
// in this package pins that down).
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"dcbench/internal/memo"
	"dcbench/internal/memtrace"
	"dcbench/internal/obs"
	"dcbench/internal/uarch"
)

// Job is one unit of sweep work: a named workload trace to run through the
// core model. core.Workload entries map to Jobs one-to-one.
//
// (Name, Profile) must uniquely identify the generated trace: the engine's
// memo table cannot hash the Gen closure, so two Jobs sharing a name and
// profile but generating different traces would share one cached result.
type Job struct {
	Name    string
	Profile memtrace.Profile
	Gen     func(*memtrace.Tracer)
}

// RunOptions tunes one engine run.
type RunOptions struct {
	// Workers is the fan-out width; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// NoMemo bypasses the result cache, forcing a full re-simulation
	// (benchmarks measuring sweep cost set this).
	NoMemo bool
}

func (o RunOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Key identifies one simulation's full input: the workload (name plus its
// entire trace profile, which embeds the seed; the Gen closure itself is
// not hashable, hence Job's uniqueness contract) and the machine (config
// fingerprint, which embeds the warmup) at a given trace length. It is the
// engine's memo key and the address a MemoBackend persists results under.
type Key struct {
	Name      string
	Profile   memtrace.Profile
	ConfigFP  uint64
	MaxInstrs int64
}

// MemoBackend is a second-level result cache behind the engine's in-memory
// memo table — a persistent store shared across processes, a remote
// dispatch layer forwarding misses to worker nodes, or both stacked. The
// engine consults it only on an in-memory miss and writes through after
// each successful simulation, both under the key's singleflight cell, so a
// backend sees at most one Load and one Store per key per process while
// the key stays in the memo's retained set. A key evicted from that set
// (it holds the memo.MaxRetained most recently used) costs one more Load
// when it is next asked for — a store read, not a simulation — and a
// failed simulation forgets the key, so a retry consults the backend again.
//
// Backends swallow their own failures (a broken store must degrade to
// re-simulation, not break the sweep): Load reports a miss, Store drops the
// write. Counters handed to and from the backend are shared with the memo
// table — treat them as read-only.
//
// The context carries the obs trace of whichever request is paying for
// the miss, so a backend that does real work (a store read, a dispatched
// RPC) records its spans into that request's timeline and propagates the
// trace ID across processes. Its cancellation is refcounted, not
// per-caller: the engine calls backends inside a singleflight cell, and
// the context is cancelled only when every caller sharing the cell has
// left — a backend seeing ctx.Done() may abort the load, because nobody
// wants the result anymore.
type MemoBackend interface {
	Load(context.Context, Key) (*uarch.Counters, bool)
	Store(context.Context, Key, *uarch.Counters)
}

// Engine runs characterization sweeps. It is safe for concurrent use; the
// memo table and the core free list are shared across runs, so a
// long-lived engine amortises both simulation and allocation across every
// figure render. The free list holds idle cores of any config (simulate
// Resets each to its job's) and is as long as the compute budget, which
// every core in use holds a slot of: it keeps every core a pass needs,
// however many configs the engine runs, and a GC does not empty it.
type Engine struct {
	mu      sync.Mutex
	memo    *memo.Memo[Key, *uarch.Counters] // retaining, bounded: the most recently used results
	cores   chan *uarch.Core                 // idle cores, at most cap(budget)
	backend MemoBackend
}

// budget is the process's compute budget: one slot per core, taken by
// every simulation (Engine.simulate) and every cluster cell
// (workloads.StatsCache) for as long as it runs. Fan-out widths are per
// call — a figure render, a job — so without it two concurrent callers at
// GOMAXPROCS each put twice as many working sets (a core, a trace in
// flight, a cell's records) in memory as there are cores to run them. It
// is package-level because the cores it budgets belong to the process.
var budget = make(chan struct{}, runtime.GOMAXPROCS(0))

// Acquire takes one slot of the process's compute budget, waiting until one
// is free or ctx is done (then it returns ctx.Err() and holds nothing). A
// holder must call Release exactly once, and must not wait for another slot,
// a memo flight or a backend while it holds one: only the owner of a flight
// takes a slot, after its backend miss, so no unit waits on a unit that
// waits for it.
func Acquire(ctx context.Context) error {
	select {
	case budget <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release returns a slot taken by Acquire.
func Release() { <-budget }

// NewEngine returns an empty engine.
func NewEngine() *Engine {
	e := &Engine{
		memo:  memo.New[Key, *uarch.Counters](),
		cores: make(chan *uarch.Core, cap(budget)),
	}
	e.memo.SetName("sweep")
	return e
}

// SetMemoBackend installs (or, with nil, removes) the engine's second-level
// result cache. Keys already resolved through the in-memory memo are not
// re-read from the backend, so install it before the first Run.
func (e *Engine) SetMemoBackend(b MemoBackend) {
	e.mu.Lock()
	e.backend = b
	e.mu.Unlock()
}

// Run characterizes every job under cfg, capping each trace at maxInstrs
// (0 keeps each profile's own cap), and returns one counter file per job in
// job order. Cancellation is per-workload: a cancelled context stops new
// jobs from starting and Run returns ctx.Err(); in-flight jobs finish
// first. A job that fails (a panicking generator, say) yields a nil entry
// and its error — wrapped with the job name — joined into the returned
// error, while the remaining jobs still run.
//
// Returned counters may be shared with other callers through the memo
// table: treat them as read-only.
func (e *Engine) Run(ctx context.Context, jobs []Job, cfg uarch.Config, maxInstrs int64, opt RunOptions) ([]*uarch.Counters, error) {
	out := make([]*uarch.Counters, len(jobs))
	errs := make([]error, len(jobs))
	fp := cfg.Fingerprint()
	err := Each(ctx, opt.workers(), len(jobs), func(i int) {
		if opt.NoMemo {
			out[i], errs[i] = e.simulate(ctx, jobs[i], cfg, maxInstrs)
		} else {
			out[i], errs[i] = e.memoized(ctx, jobs[i], cfg, fp, maxInstrs)
		}
	})
	if err != nil {
		return out, err
	}
	return out, joinJobErrors(jobs, errs)
}

// joinJobErrors wraps each failed job's error with its name.
func joinJobErrors(jobs []Job, errs []error) error {
	var wrapped []error
	for i, err := range errs {
		if err != nil {
			wrapped = append(wrapped, fmt.Errorf("%s: %w", jobs[i].Name, err))
		}
	}
	return errors.Join(wrapped...)
}

// Join waits for key's memoized or in-flight result without ever starting
// a simulation: ok is false immediately when the engine is neither
// computing nor retaining the key. This is the admission
// layer's shed-or-join peek — a saturated worker can still answer a
// request for a key it is already simulating. The wait is cancellable and
// refcounted like any other shared join.
func (e *Engine) Join(ctx context.Context, key Key) (*uarch.Counters, error, bool) {
	return e.memo.Join(ctx, key)
}

// memoized returns the cached counters for the job, simulating at most once
// per key even under concurrent callers. On an in-memory miss the backend
// (when installed) is consulted first, and a fresh simulation is written
// through to it — both inside the key's singleflight cell. A failed
// simulation is not retained (the shared memo's contract), so a later Run
// retries the job instead of replaying the failure.
//
// The cell runs under DoShared: callers whose contexts are cancelled leave
// the flight individually, and the simulation's own context is cancelled
// only when the last of them has gone — at which point simulate's reader
// wrapper stops the core between batches and the partial result is
// discarded, never cached and never written through.
func (e *Engine) memoized(ctx context.Context, job Job, cfg uarch.Config, fp uint64, maxInstrs int64) (*uarch.Counters, error) {
	key := Key{Name: job.Name, Profile: job.Profile, ConfigFP: fp, MaxInstrs: maxInstrs}
	e.mu.Lock()
	backend := e.backend
	e.mu.Unlock()
	return e.memo.DoShared(ctx, key, func(ctx context.Context) (*uarch.Counters, error) {
		if backend != nil {
			sp := obs.Start(ctx, "backend.load", "workload", job.Name)
			c, ok := backend.Load(ctx, key)
			sp.End("hit", strconv.FormatBool(ok))
			if ok {
				return c, nil
			}
		}
		c, err := e.simulate(ctx, job, cfg, maxInstrs)
		if backend != nil && err == nil {
			sp := obs.Start(ctx, "backend.store", "workload", job.Name)
			backend.Store(ctx, key, c)
			sp.End()
		}
		return c, err
	})
}

// simulate runs one job through a core drawn from the engine's free list
// and Reset to cfg (or a fresh core when the list is empty), returning a
// private copy of the counter file so the core can be recycled
// immediately. The instruction stream is always generated live, by a
// coroutine on this goroutine. Panics come back as errors: a generator
// panic arrives wrapped in memtrace.TracePanic after the generator has
// unwound, while a core-model panic leaves it suspended mid-trace. A cancelled context stops the core between read batches (the
// trace is truncated to an EOF), the partial counters are discarded, and
// ctx.Err() is returned. Whatever the outcome the reader is closed, which
// unwinds a generator given up mid-trace before simulate returns. It holds
// a slot of the compute budget from before the reader starts until it
// returns; a context cancelled while it waits for the slot returns
// ctx.Err() before anything has run.
func (e *Engine) simulate(ctx context.Context, job Job, cfg uarch.Config, maxInstrs int64) (counters *uarch.Counters, err error) {
	p := job.Profile
	if maxInstrs > 0 {
		p.MaxInstrs = maxInstrs
	}
	// The slot comes first, so a queued job neither fills trace batches nor
	// reads as simulating while it waits.
	if err := Acquire(ctx); err != nil {
		return nil, err
	}
	defer Release()
	r := memtrace.NewReader(p, job.Gen)
	defer r.Close()
	sp := obs.Start(ctx, "simulate", "workload", job.Name)
	defer sp.End()
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		// Either way the core is dropped rather than put back on the free
		// list: the panic may have left it mid-step.
		if tp, ok := rec.(memtrace.TracePanic); ok {
			err = fmt.Errorf("trace generation panicked: %v", tp.Val)
			return
		}
		err = fmt.Errorf("core model panicked: %v", rec)
	}()
	// The core consumes the trace through a cancellation-aware wrapper:
	// between batches it checks ctx and, once cancelled, feeds the core an
	// EOF — the only clean way to stop a simulation mid-trace without
	// teaching the core model about contexts.
	cr := &cancelReader{ctx: ctx, r: r}
	var c *uarch.Core
	select {
	case c = <-e.cores:
		c.Reset(cfg)
	default:
		c = uarch.NewCore(cfg)
	}
	snap := *c.Run(cr)
	if cr.stopped {
		// Cancelled mid-trace: the truncated counters are garbage and the
		// core holds partial state — abandon it, and surface the
		// cancellation instead of a result.
		return nil, ctx.Err()
	}
	select {
	case e.cores <- c: // a full list drops the core
	default:
	}
	return &snap, nil
}

// cancelReader feeds a live trace to the core, lending its batches, until
// its context is cancelled, at which point it reports EOF and stopped
// latches. Used only from a single simulation goroutine; no locking needed.
type cancelReader struct {
	ctx     context.Context
	r       *memtrace.LiveReader
	stopped bool
}

// cancelled latches stopped once the context is done.
func (cr *cancelReader) cancelled() bool {
	if !cr.stopped && cr.ctx.Err() != nil {
		cr.stopped = true
	}
	return cr.stopped
}

func (cr *cancelReader) Read(buf []memtrace.Inst) int {
	if cr.cancelled() {
		return 0
	}
	return cr.r.Read(buf)
}

func (cr *cancelReader) NextBatch() []memtrace.Inst {
	if cr.cancelled() {
		return nil
	}
	return cr.r.NextBatch()
}

// Each runs fn(i) for i in [0, n) on a pool of at most workers goroutines,
// handing out indices in order. A cancelled ctx stops new indices from
// being claimed and Each returns ctx.Err() once in-flight calls finish;
// per-index failures belong in caller-side slices, not in fn's control
// flow. Each returns nil when every index ran.
func Each(ctx context.Context, workers, n int, fn func(i int)) error {
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Collect fans fn(i) for i in [0, n) over at most workers goroutines
// (<= 0 means runtime.GOMAXPROCS(0), matching the engine's convention)
// and gathers results in index order. Cancellation
// returns ctx.Err() alone; otherwise every index runs and the first
// per-index error (by index) is returned alongside the partial results.
func Collect[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]T, n)
	errs := make([]error, n)
	if err := Each(ctx, workers, n, func(i int) {
		out[i], errs[i] = fn(i)
	}); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
