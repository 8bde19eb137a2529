package workloads

import (
	"context"

	"dcbench/internal/memo"
	"dcbench/internal/obs"
	"dcbench/internal/sweep"
)

// StatsKey identifies one cluster experiment run: a workload simulated on a
// cluster of Slaves nodes at a given input scale and seed. Those four
// inputs fully determine the resulting Stats (scheduling width does not
// affect results), so the key doubles as the address a StatsBackend
// persists them under.
type StatsKey struct {
	Workload string
	Slaves   int
	Scale    float64
	Seed     uint64
}

// StatsBackend is a second-level cluster-result cache behind a StatsCache's
// in-memory table — typically the same persistent store that backs the
// sweep engine, so restarts skip the cluster simulations too.
//
// The context carries request-scoped observability values (trace spans
// land in the requesting caller's timeline). Its cancellation is
// refcounted by the cache's singleflight: it fires only when every caller
// sharing the cell has left, so a backend seeing ctx.Done() may abort —
// nobody wants the result anymore.
//
// Backends swallow their own failures (a broken store must degrade to
// re-simulation, not break a figure render): LoadStats reports a miss,
// StoreStats drops the write. Stats handed to and from the backend are
// shared with the cache — treat them as read-only.
type StatsBackend interface {
	LoadStats(context.Context, StatsKey) (*Stats, bool)
	StoreStats(context.Context, StatsKey, *Stats)
}

// StatsCache memoizes cluster runs on the shared singleflight memo: an
// in-memory table where concurrent requests for the same run share one
// simulation, optionally backed by a persistent StatsBackend consulted on
// miss and written through after each successful run. The table keeps the
// memo.MaxRetained most recently used runs; an evicted one is reloaded
// from the backend. It is safe for concurrent use. Cached Stats are shared
// across callers — read-only.
type StatsCache struct {
	memo    *memo.Memo[StatsKey, *Stats]
	backend StatsBackend
}

// NewStatsCache returns an empty cache over backend (nil for memory-only).
func NewStatsCache(backend StatsBackend) *StatsCache {
	m := memo.New[StatsKey, *Stats]()
	m.SetName("cluster")
	return &StatsCache{memo: m, backend: backend}
}

// Do returns the stats for key, calling run at most once per key even under
// concurrent callers; the backend (when present) is consulted first and
// filled after, both inside the key's singleflight cell (memo.DoShared).
// A failed run (cancellation included) is not cached, so a later call
// retries. A caller whose ctx is cancelled leaves the flight with
// ctx.Err() while other callers keep waiting, and run's context is
// cancelled only when the last caller has left; a caller that must see the
// run through passes a context that is never cancelled. A cluster
// simulation cannot be stopped mid-run (workload Run takes no context), so
// run should check its ctx before starting; cancellation's win here is
// that waiters and their admission slots are released immediately.
func (c *StatsCache) Do(ctx context.Context, key StatsKey, run func(context.Context) (*Stats, error)) (*Stats, error) {
	if c == nil {
		return runCell(ctx, key, run)
	}
	return c.memo.DoShared(ctx, key, c.fill(key, run))
}

// Join waits for key's cached or in-flight stats without ever starting a
// run; ok is false when there is nothing to join (the admission layer's
// shed-or-join peek).
func (c *StatsCache) Join(ctx context.Context, key StatsKey) (st *Stats, err error, ok bool) {
	if c == nil {
		return nil, nil, false
	}
	return c.memo.Join(ctx, key)
}

// fill builds the inside-the-cell function: backend lookup, the run itself
// (runCell), write-through on success.
func (c *StatsCache) fill(key StatsKey, run func(context.Context) (*Stats, error)) func(context.Context) (*Stats, error) {
	return func(ctx context.Context) (*Stats, error) {
		if c.backend != nil {
			if st, ok := c.backend.LoadStats(ctx, key); ok {
				return st, nil
			}
		}
		st, err := runCell(ctx, key, run)
		if err == nil && c.backend != nil {
			c.backend.StoreStats(ctx, key, st)
		}
		return st, err
	}
}

// runCell runs one cluster cell under a "cluster.run" span, holding a slot
// of the process's compute budget (sweep.Acquire) from before the span
// starts until the cell returns or panics. A context done while it waits
// for the slot returns ctx.Err() without running the cell.
func runCell(ctx context.Context, key StatsKey, run func(context.Context) (*Stats, error)) (*Stats, error) {
	if err := sweep.Acquire(ctx); err != nil {
		return nil, err
	}
	defer sweep.Release()
	sp := obs.Start(ctx, "cluster.run", "workload", key.Workload)
	defer sp.End()
	return run(ctx)
}
