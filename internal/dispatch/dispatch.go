// Package dispatch fans compute jobs out over worker nodes: a
// RemoteBackend forwards memo misses to a configured set of dcserved
// workers over HTTP, turning a front-end's caches into the head of a
// compute cluster. One path carries every job kind: the same rendezvous
// ranking, retry walk, circuit state and admission push-back serves
// characterization sweeps (sweep.MemoBackend, kind "counters") and cluster
// experiments (workloads.StatsBackend, kind "cluster"), and a future kind
// is one more jobKind descriptor plus a store codec, not a new backend.
//
// The design rides the memo seams end to end. The engines consult their
// backends only inside a key's singleflight cell, so the dispatch layer
// sees each key at most once per process while it stays memoized; below
// that, a load checks the local store first (warm results never leave
// the process), then ranks workers by rendezvous hashing over the record's
// content address (peer.Rank over store.CountersAddr / store.ClusterAddr)
// — every front-end sharing a worker set routes a key to the same worker,
// so the cluster simulates each key once, and the order is the one store
// replication pushes along, so a key's top -dispatch-replicas workers are
// the nodes holding its copies — and forwards the miss as a kind-tagged
// POST /v1/jobs with a per-attempt timeout, retrying on the next-ranked
// workers.
//
// Failure and saturation are first-class inputs. Every worker carries
// consecutive-failure circuit state (an open circuit demotes it to last
// resort until a cooldown passes). A worker that sheds a job with 429
// is not failing — it is pushing back — so its Retry-After hint demotes
// it in ranking for exactly that window without touching its circuit,
// and the attempt moves to the next-ranked worker. A response is trusted
// only after the store codec's checksum-and-key verification, and when
// every worker is dark (or shedding) a load reports a plain miss — the
// engine simulates locally and the front-end degrades to exactly the
// single-process behaviour, counted per kind in the Fallbacks stat
// rather than silent.
//
// Remote results are written through to the local store, so a front-end
// restart serves them without touching the cluster.
package dispatch

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcbench/internal/obs"
	"dcbench/internal/peer"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

// Defaults for Options' zero fields.
const (
	DefaultTimeout  = 120 * time.Second // a cold job on a loaded worker is slow, not dead
	DefaultRetries  = 2                 // attempts beyond the first, each on the next-ranked worker
	DefaultCooldown = 30 * time.Second  // circuit-open duration
	failThreshold   = 3                 // consecutive failures that open a worker's circuit
)

// maxShedDemotion caps how long a Retry-After hint can demote a worker: a
// buggy or hostile worker must not bench itself for an hour with one
// header.
const maxShedDemotion = time.Minute

// defaultRetryAfter is the demotion window when a 429 carries no usable
// Retry-After header.
const defaultRetryAfter = time.Second

// Options configures a RemoteBackend. The zero value of every field but
// Workers is usable: New fills defaults for Timeout and Cooldown, whose
// zero values would be meaningless; Retries 0 genuinely means "no
// retries" (RegisterFlags, which only dcserved mounts, sets
// DefaultRetries).
type Options struct {
	// Workers are the worker addresses (host:port); an empty list means
	// dispatch is off and the caller should not build a backend at all.
	Workers []string
	// Timeout bounds each attempt, connection to last byte.
	Timeout time.Duration
	// Retries is how many additional attempts a failed fetch gets, each on
	// the next worker in the key's rendezvous order. 0 means one attempt
	// total.
	Retries int
	// Cooldown is how long an open circuit keeps a worker demoted; 0 means
	// DefaultCooldown.
	Cooldown time.Duration
	// APIKey, when non-empty, authenticates every dispatched request as
	// `Authorization: Bearer <APIKey>` — the front-end's own service key
	// on keyed workers. Independently of it, the originating tenant's id
	// rides the X-Dcs-Tenant header, so a keyed worker enforces the
	// service key's limits while attributing the work to the tenant that
	// caused it (and an unkeyed worker still gets the attribution).
	APIKey string
	// Replicas is how many copies of each key the worker cluster keeps
	// (the workers' -replication-factor, see internal/replica). Above 1, a
	// fetch's first attempt rotates across the key's top Replicas healthy
	// workers instead of always hitting the owner — replication pushes
	// along the same rendezvous order, so those workers hold the key's
	// copies and any of them serves it warm. The retry walk still covers
	// the full order, owner included. 0 or 1 preserves owner-only routing.
	Replicas int
}

// RegisterFlags declares dcserved's dispatch flags on fs, defaulted from
// *o and written back on Parse. The retry count is not a flag: it is
// DefaultRetries.
func RegisterFlags(fs *flag.FlagSet, o *Options) {
	if o.Timeout == 0 {
		o.Timeout = DefaultTimeout
	}
	o.Retries = DefaultRetries
	if o.Replicas == 0 {
		o.Replicas = 1
	}
	fs.Var((*peer.List)(&o.Workers), "workers", "comma-separated job worker addresses (host:port,...); empty = simulate locally")
	fs.DurationVar(&o.Timeout, "dispatch-timeout", o.Timeout, "per-attempt timeout for dispatched jobs")
	fs.StringVar(&o.APIKey, "dispatch-api-key", o.APIKey, "API key presented to workers as a bearer token; empty = unauthenticated dispatch")
	fs.IntVar(&o.Replicas, "dispatch-replicas", o.Replicas, "store copies per key in the worker cluster; above 1, reads rotate across a key's replicas instead of always asking the owner")
}

// worker is one remote node's address, traffic counters, circuit state
// and admission (shed) state.
type worker struct {
	addr string
	url  string // POST /v1/jobs

	sent atomic.Int64
	errs atomic.Int64
	shed atomic.Int64

	mu        sync.Mutex
	fails     int       // consecutive failures
	lastErr   string    // most recent failure, cleared on success — /healthz's why
	openUntil time.Time // circuit open (worker demoted) until then
	shedUntil time.Time // worker asked for back-off (429 Retry-After) until then
}

// healthy reports whether the worker's circuit is closed at t.
func (w *worker) healthy(t time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return !t.Before(w.openUntil)
}

// shedding reports whether the worker's last 429's Retry-After window is
// still open at t.
func (w *worker) shedding(t time.Time) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return t.Before(w.shedUntil)
}

func (w *worker) succeeded() {
	w.mu.Lock()
	w.fails = 0
	w.lastErr = ""
	w.openUntil = time.Time{}
	w.shedUntil = time.Time{}
	w.mu.Unlock()
}

func (w *worker) failed(t time.Time, cooldown time.Duration, errText string) {
	w.errs.Add(1)
	w.mu.Lock()
	w.fails++
	w.lastErr = errText
	if w.fails >= failThreshold {
		w.openUntil = t.Add(cooldown)
	}
	w.mu.Unlock()
}

// failState snapshots the mu-guarded failure diagnostics for /healthz:
// the consecutive-failure count behind the circuit and the most recent
// error text, so a dark worker explains itself without a log grep.
func (w *worker) failState() (fails int, lastErr string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fails, w.lastErr
}

// shedded records a 429: the worker is saturated, not broken, so it is
// demoted for the Retry-After window it asked for without touching its
// circuit state.
func (w *worker) shedded(t time.Time, retryAfter time.Duration) {
	w.shed.Add(1)
	w.mu.Lock()
	if until := t.Add(retryAfter); until.After(w.shedUntil) {
		w.shedUntil = until
	}
	w.mu.Unlock()
}

// errShed tags a 429 attempt so the fetch loop can count it as push-back
// rather than failure.
var errShed = errors.New("worker shedding load")

// Stats is the dispatch block of /healthz: how much compute work left
// this process, how much of it came back, and how often the process had to
// degrade to simulating locally. Fallbacks > 0 with a nonzero worker set is
// the operator's signal that the cluster is dark; Shed > 0 says workers
// are answering but saturated (429), so the set is undersized for the
// load, not broken. The aggregate counters sum over job kinds; PerKind
// splits them so a cluster-job problem cannot hide behind healthy counter
// traffic. Each number declares the /metrics family it is exported under.
type Stats struct {
	Workers    int64         `json:"workers" metric:"dcserved_dispatch_workers,gauge" help:"Configured sweep workers."`
	Healthy    int64         `json:"healthy" metric:"dcserved_dispatch_healthy_workers,gauge" help:"Workers whose circuit is currently closed."`
	Dispatched int64         `json:"dispatched" metric:"dcserved_dispatch_dispatched_total,counter" help:"Job misses forwarded to the worker set (all kinds)."`
	RemoteHits int64         `json:"remote_hits" metric:"dcserved_dispatch_remote_hits_total,counter" help:"Dispatched jobs answered by a worker (all kinds)."`
	Fallbacks  int64         `json:"fallbacks" metric:"dcserved_dispatch_fallbacks_total,counter" help:"Dispatched jobs that fell back to local simulation (all kinds)."`
	Errors     int64         `json:"errors" metric:"dcserved_dispatch_errors_total,counter" help:"Failed worker attempts (a fetch may retry past these)."`
	Shed       int64         `json:"shed" metric:"dcserved_dispatch_shed_total,counter" help:"Dispatch attempts answered 429 by a saturated worker."`
	InFlight   int64         `json:"in_flight" metric:"dcserved_dispatch_in_flight,gauge" help:"Dispatched jobs currently awaiting a worker (all kinds)."`
	PerKind    []KindStats   `json:"per_kind,omitempty"`
	PerWorker  []WorkerStats `json:"per_worker,omitempty"`
}

// KindStats is one job kind's slice of the dispatch counters. Kind names
// match the store's record kinds ("counters", "cluster") and label the
// per-kind families.
type KindStats struct {
	Kind       string `json:"kind" label:"kind"`
	Dispatched int64  `json:"dispatched" metric:"dcserved_dispatch_kind_dispatched_total,counter" help:"Job misses forwarded to the worker set, by job kind."`
	RemoteHits int64  `json:"remote_hits" metric:"dcserved_dispatch_kind_remote_hits_total,counter" help:"Dispatched jobs answered by a worker, by job kind."`
	Fallbacks  int64  `json:"fallbacks" metric:"dcserved_dispatch_kind_fallbacks_total,counter" help:"Dispatched jobs that fell back to local simulation, by job kind."`
	Errors     int64  `json:"errors" metric:"dcserved_dispatch_kind_errors_total,counter" help:"Failed worker attempts, by job kind."`
	Shed       int64  `json:"shed" metric:"dcserved_dispatch_kind_shed_total,counter" help:"Dispatch attempts answered 429, by job kind."`
}

// WorkerStats is one worker's traffic and health as seen by the dispatch
// layer; /healthz reports it and /metrics does not. Shedding means the
// worker's last answer was a 429 and its Retry-After window has not yet
// passed — it is demoted in ranking but, unlike an open circuit, still
// counts as alive.
type WorkerStats struct {
	Addr        string `json:"addr"`
	Sent        int64  `json:"sent" metric:"-"`
	Errors      int64  `json:"errors" metric:"-"`
	Shed        int64  `json:"shed" metric:"-"`
	CircuitOpen bool   `json:"circuit_open"`
	Shedding    bool   `json:"shedding"`
	// ConsecutiveFails is the worker's current failure streak (the circuit
	// opens at the dispatch layer's threshold) and LastError the text of
	// its most recent failed attempt — enough to diagnose a dark replica
	// from /healthz without grepping front-end logs. Both are omitted
	// while the worker is clean, so healthy output is unchanged.
	ConsecutiveFails int    `json:"consecutive_fails,omitempty" metric:"-"`
	LastError        string `json:"last_error,omitempty"`
}

// kindStats is one job kind's slice of the dispatch counters.
type kindStats struct {
	dispatched atomic.Int64
	remoteHits atomic.Int64
	fallbacks  atomic.Int64
	errs       atomic.Int64
	shed       atomic.Int64
}

func (k *kindStats) snapshot(kind string) KindStats {
	return KindStats{
		Kind:       kind,
		Dispatched: k.dispatched.Load(),
		RemoteHits: k.remoteHits.Load(),
		Fallbacks:  k.fallbacks.Load(),
		Errors:     k.errs.Load(),
		Shed:       k.shed.Load(),
	}
}

// jobKind describes one job kind to the dispatch path: how its keys are
// addressed, how its response record is verified, and where its results
// are cached locally. Everything else — ranking, the retry walk, circuit
// and shed state, write-through, fallback accounting — is shared.
type jobKind[K comparable, V any] struct {
	name   string                     // the store record kind, also the /v1/jobs kind tag
	warmup int64                      // shipped with every job of this kind (counters only)
	addr   func(K) (string, error)    // the record's content address: the rendezvous input
	decode func([]byte) (K, V, error) // the store codec: checksum, kind and embedded key
	// The local backend, consulted before any dispatch and written
	// through after; both nil on a storeless front-end.
	load  func(context.Context, K) (V, bool)
	store func(context.Context, K, V)

	stats kindStats
}

// RemoteBackend forwards job memo misses to worker nodes. It implements
// sweep.MemoBackend and workloads.StatsBackend, so it slots into the
// sweep engine and the cluster cache untouched.
type RemoteBackend struct {
	opts    Options
	workers map[string]*worker // by address; opts.Workers holds the configured order
	client  peer.Client
	log     *slog.Logger
	now     func() time.Time

	counters jobKind[sweep.Key, *uarch.Counters]
	cluster  jobKind[workloads.StatsKey, *workloads.Stats]

	rr       atomic.Int64 // round-robin cursor for replica read rotation
	inFlight atomic.Int64
}

// New builds a RemoteBackend over the given worker set. warmup is the
// run's ramp-up instruction count — the parameter the sweep keys' config
// fingerprint is derived from, shipped with every counters job so workers
// can rebuild and verify the machine config. local and localStats, when
// non-nil, are the backends remote results are written through to (and
// checked before any dispatch) — typically the persistent store's two
// backend adapters.
func New(opts Options, warmup int64, local sweep.MemoBackend, localStats workloads.StatsBackend, log *slog.Logger) (*RemoteBackend, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("dispatch: no workers configured")
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = DefaultCooldown
	}
	if log == nil {
		log = slog.Default()
	}
	b := &RemoteBackend{
		opts:    opts,
		workers: make(map[string]*worker, len(opts.Workers)),
		client:  peer.Client{APIKey: opts.APIKey, Timeout: opts.Timeout},
		log:     log,
		now:     time.Now,
		counters: jobKind[sweep.Key, *uarch.Counters]{
			name: store.KindCounters, warmup: warmup,
			addr: store.CountersAddr, decode: store.DecodeCounters,
		},
		cluster: jobKind[workloads.StatsKey, *workloads.Stats]{
			name: store.KindCluster,
			addr: store.ClusterAddr, decode: store.DecodeStats,
		},
	}
	if local != nil {
		b.counters.load, b.counters.store = local.Load, local.Store
	}
	if localStats != nil {
		b.cluster.load, b.cluster.store = localStats.LoadStats, localStats.StoreStats
	}
	b.opts.Workers = nil
	for _, addr := range opts.Workers {
		if b.workers[addr] != nil {
			continue // a repeated address is one worker, not two
		}
		b.opts.Workers = append(b.opts.Workers, addr)
		b.workers[addr] = &worker{addr: addr, url: "http://" + addr + "/v1/jobs"}
	}
	return b, nil
}

// The four interface methods are the typed edges of the one generic path.

// Load resolves a sweep key: local backend first, then the worker set. A
// remote result is written through to the local backend before it is
// returned. Total remote failure is a counted fallback and a plain miss —
// the engine then simulates locally, preserving single-process behaviour.
func (b *RemoteBackend) Load(ctx context.Context, k sweep.Key) (*uarch.Counters, bool) {
	return load(ctx, b, &b.counters, k)
}

// Store writes a locally simulated result through to the local backend.
// Workers are not told: the cluster's copy lives wherever the key's
// rendezvous owner keeps its store.
func (b *RemoteBackend) Store(ctx context.Context, k sweep.Key, c *uarch.Counters) {
	if b.counters.store != nil {
		b.counters.store(ctx, k, c)
	}
}

// LoadStats resolves a cluster experiment key exactly as Load resolves a
// sweep key.
func (b *RemoteBackend) LoadStats(ctx context.Context, k workloads.StatsKey) (*workloads.Stats, bool) {
	return load(ctx, b, &b.cluster, k)
}

// StoreStats writes a locally simulated cluster result through to the
// local stats backend.
func (b *RemoteBackend) StoreStats(ctx context.Context, k workloads.StatsKey, st *workloads.Stats) {
	if b.cluster.store != nil {
		b.cluster.store(ctx, k, st)
	}
}

// load is the body of Load and LoadStats: local backend, then one fetch,
// then the counted fallback. The engine and the stats cache call it only
// inside the key's memo cell, so concurrent misses for one key are already
// one call here.
func load[K comparable, V any](ctx context.Context, b *RemoteBackend, kd *jobKind[K, V], k K) (V, bool) {
	if kd.load != nil {
		if v, ok := kd.load(ctx, k); ok {
			return v, true
		}
	}
	v, err := fetch(ctx, b, kd, k)
	if err != nil {
		var zero V
		if ctx.Err() == nil {
			// A cluster failure, not the caller's own cancellation (every
			// sharer of the engine's memo cell has left, and the engine
			// will abort rather than simulate): count the fallback.
			kd.stats.fallbacks.Add(1)
			b.log.Warn("dispatch failed; falling back to local simulation", "kind", kd.name, "key", k, "err", err)
		}
		return zero, false
	}
	return v, true
}

// jobBody encodes one kind-tagged /v1/jobs request.
func jobBody(kind string, key any, warmup int64) ([]byte, error) {
	rawKey, err := json.Marshal(key)
	if err != nil {
		return nil, err
	}
	return json.Marshal(struct {
		Kind   string          `json:"kind"`
		Key    json.RawMessage `json:"key"`
		Warmup int64           `json:"warmup,omitempty"`
	}{kind, rawKey, warmup})
}

// fetch runs one dispatched job: it walks the key's rendezvous order
// (healthy workers first, shedding ones demoted behind them, open
// circuits last), one attempt at a time, each bounded by the per-attempt
// timeout, until a worker's response verifies; the verified result is
// written through to the local backend. Runs inside the caller's memo
// cell, so concurrent engine misses for one key cost one remote round
// trip. ctx carries the trace (each attempt records a "dispatch" span and
// forwards the trace ID to the worker) and the cell's refcounted
// cancellation: it fires only when every caller sharing the cell has
// left, aborting the worker HTTP request so the worker sees its own
// request context die, its simulation joiner leaves, and (if it was the
// last) the worker's simulation stops and frees its slot.
func fetch[K comparable, V any](ctx context.Context, b *RemoteBackend, kd *jobKind[K, V], k K) (V, error) {
	var zero V
	recordAddr, err := kd.addr(k)
	if err != nil {
		return zero, err
	}
	body, err := jobBody(kd.name, k, kd.warmup)
	if err != nil {
		return zero, err
	}
	kd.stats.dispatched.Add(1)
	b.inFlight.Add(1)
	defer b.inFlight.Add(-1)

	order, alive := b.rank(recordAddr)
	if alive == 0 {
		// Every circuit is open: fail fast instead of paying a full
		// timeout per key against workers already known to be dark. The
		// cluster is probed again once a cooldown expires (healthy() turns
		// true by itself), so recovery needs no traffic while open.
		return zero, errors.New("every worker's circuit is open")
	}
	order = b.rotate(order)
	if attempts := b.opts.Retries + 1; attempts < len(order) {
		order = order[:attempts]
	}
	var errs []error
	for _, w := range order {
		sp := obs.Start(ctx, "dispatch", "worker", w.addr, "kind", kd.name)
		v, err := attempt(ctx, b, kd, w, k, body)
		switch {
		case err == nil:
			sp.End("outcome", "ok")
			kd.stats.remoteHits.Add(1)
			if kd.store != nil {
				kd.store(ctx, k, v) // write through: restarts stay warm
			}
			return v, nil
		case errors.Is(err, errShed):
			sp.End("outcome", "shed")
		default:
			sp.End("outcome", "error")
		}
		errs = append(errs, fmt.Errorf("%s: %w", w.addr, err))
		if ctx.Err() != nil {
			break // every caller left: the remaining workers are not to blame
		}
	}
	return zero, errors.Join(errs...)
}

// attempt asks one worker and verifies its answer with the store codec:
// a garbage 200, or a well-formed record for another key, is charged to
// the worker that produced it and fails the attempt, so a mangled record
// never wins over a retry; a valid one resets the worker's circuit.
func attempt[K comparable, V any](ctx context.Context, b *RemoteBackend, kd *jobKind[K, V], w *worker, k K, body []byte) (V, error) {
	var zero V
	data, err := b.post(ctx, w, &kd.stats, body)
	if err != nil {
		return zero, err
	}
	gotKey, v, err := kd.decode(data)
	switch {
	case err != nil:
		err = fmt.Errorf("unverifiable response: %w", err)
	case gotKey != k:
		err = fmt.Errorf("response is for %s key %+v, want %+v", kd.name, gotKey, k)
	default:
		w.succeeded()
		return v, nil
	}
	b.workerFailed(w, &kd.stats, err)
	return zero, err
}

// workerFailed records one failed attempt in both ledgers at once — the
// worker's own counter/circuit state and the per-kind aggregate — so
// per_worker[].errors always sums to dispatch.errors.
func (b *RemoteBackend) workerFailed(w *worker, ks *kindStats, err error) {
	ks.errs.Add(1)
	msg := err.Error()
	if len(msg) > 200 {
		msg = msg[:200]
	}
	w.failed(b.now(), b.opts.Cooldown, msg)
}

// post sends one /v1/jobs request and returns the raw response bytes of a
// 200, the caller verifying them with the store codec. A 429 demotes the
// worker for its Retry-After window without touching circuit state; any
// other failure feeds the circuit.
func (b *RemoteBackend) post(ctx context.Context, w *worker, ks *kindStats, body []byte) ([]byte, error) {
	w.sent.Add(1)
	status, hdr, data, err := b.client.Do(ctx, http.MethodPost, w.url, body)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err() // every caller left: not this worker's fault
		}
		b.workerFailed(w, ks, err)
		return nil, err
	}
	if status == http.StatusTooManyRequests {
		// Push-back, not failure: honor the worker's Retry-After hint as a
		// ranking demotion and move on to the next-ranked worker.
		ks.shed.Add(1)
		w.shedded(b.now(), retryAfter(hdr.Get("Retry-After")))
		return nil, errShed
	}
	if status != http.StatusOK {
		msg := strings.TrimSpace(string(data))
		if len(msg) > 200 {
			msg = msg[:200]
		}
		err := fmt.Errorf("worker returned %d: %s", status, msg)
		b.workerFailed(w, ks, err)
		return nil, err
	}
	return data, nil
}

// retryAfter parses a 429's Retry-After seconds, clamped to
// [defaultRetryAfter, maxShedDemotion]; an absent or unreadable header
// gets the default.
func retryAfter(header string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(header))
	if err != nil || secs < 1 {
		return defaultRetryAfter
	}
	d := time.Duration(secs) * time.Second
	if d > maxShedDemotion {
		return maxShedDemotion
	}
	return d
}

// rank orders the workers for a record address: peer.Rank's rendezvous
// order, partitioned into three classes — healthy workers first, shedding
// ones (saturated but alive) behind them, circuit-open ones last, score
// order preserved within each class. It reports how many workers are alive
// (circuit closed, shedding or not), so the caller can fail fast on a
// fully dark cluster while still attempting a merely saturated one.
func (b *RemoteBackend) rank(recordAddr string) ([]*worker, int) {
	now := b.now()
	out := make([]*worker, 0, len(b.workers))
	var shedding, demoted []*worker
	for _, addr := range peer.Rank(b.opts.Workers, recordAddr) {
		switch w := b.workers[addr]; {
		case !w.healthy(now):
			demoted = append(demoted, w)
		case w.shedding(now):
			shedding = append(shedding, w)
		default:
			out = append(out, w)
		}
	}
	alive := len(out) + len(shedding)
	return append(append(out, shedding...), demoted...), alive
}

// rotate spreads first attempts over a key's replicas. With Replicas > 1
// the key is warm on its top Replicas workers, not just the owner, so the
// first attempt rotates across the healthy prefix of that replica set.
// rank puts healthy workers first in score order, so the prefix below the
// first non-healthy worker is exactly the healthy replicas; rotating
// within it (and only it) spreads reads without ever preferring a demoted
// worker. The retry walk still visits everything in order, owner included.
func (b *RemoteBackend) rotate(order []*worker) []*worker {
	if b.opts.Replicas <= 1 {
		return order
	}
	now := b.now()
	h := 0
	for h < len(order) && h < b.opts.Replicas &&
		order[h].healthy(now) && !order[h].shedding(now) {
		h++
	}
	if h <= 1 {
		return order
	}
	off := int(uint64(b.rr.Add(1)) % uint64(h))
	rot := make([]*worker, 0, len(order))
	rot = append(rot, order[off:h]...)
	rot = append(rot, order[:off]...)
	return append(rot, order[h:]...)
}

// Stats snapshots the dispatch counters. The aggregate counters are
// per-kind sums.
func (b *RemoteBackend) Stats() Stats {
	now := b.now()
	perKind := []KindStats{
		b.counters.stats.snapshot(b.counters.name),
		b.cluster.stats.snapshot(b.cluster.name),
	}
	d := Stats{
		Workers:  int64(len(b.workers)),
		InFlight: b.inFlight.Load(),
		PerKind:  perKind,
	}
	for _, k := range perKind {
		d.Dispatched += k.Dispatched
		d.RemoteHits += k.RemoteHits
		d.Fallbacks += k.Fallbacks
		d.Errors += k.Errors
		d.Shed += k.Shed
	}
	for _, addr := range b.opts.Workers {
		w := b.workers[addr]
		healthy := w.healthy(now)
		if healthy {
			d.Healthy++
		}
		fails, lastErr := w.failState()
		d.PerWorker = append(d.PerWorker, WorkerStats{
			Addr:             w.addr,
			Sent:             w.sent.Load(),
			Errors:           w.errs.Load(),
			Shed:             w.shed.Load(),
			CircuitOpen:      !healthy,
			Shedding:         w.shedding(now),
			ConsecutiveFails: fails,
			LastError:        lastErr,
		})
	}
	return d
}
