// Package serve is dcserved's HTTP layer: it exposes the paper's figures,
// tables and per-workload counter files over a versioned JSON/CSV API,
// backed by the concurrent sweep engine and (optionally) the persistent
// result store.
//
// Design points, in the order requests meet them:
//
//   - a structured slog request line for every refusal and failure
//     (status ≥ 400, at Info); successes and 304s log at Debug, since the
//     trace ring and the latency histograms already record each one;
//   - ETag/Cache-Control validators derived from the run parameters
//     (seed, scale, instrs, warmup, config fingerprint), so a client or
//     proxy revalidating an unchanged deployment never triggers a render;
//   - the read endpoints are a closed set of (endpoint, format) responses,
//     each with its key, validators and render built once in New; each
//     renders once per process and its bytes are retained beside it, so a
//     warm read formats nothing; a herd on a cold figure shares that one
//     render, and the engine's memo coalesces the underlying sweep a
//     second time below it;
//   - a render's callers wait under the server's base context, not the
//     request's, so they are pinned until shutdown: a coalesced sweep
//     survives the disconnect of whichever client happened to start it,
//     and shutdown (Close) cancels the base context, which releases every
//     caller with a 503 and cancels in-flight sweeps once the grace period
//     expires.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcbench/internal/dispatch"
	"dcbench/internal/jobs"
	"dcbench/internal/memo"
	"dcbench/internal/obs"
	"dcbench/internal/replica"
	"dcbench/internal/report"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/tenant"
	"dcbench/internal/workloads"
)

// Config assembles a Server.
type Config struct {
	// Options are the run parameters every response is computed under; the
	// zero value means report.DefaultOptions(). Options.Engine and
	// Options.Cluster are ignored — the server always runs its own engine
	// and cluster cache (wired to Store/Backend/Cluster below), so its
	// caches have the server's lifetime and restart semantics.
	Options report.Options
	// Store, when non-nil, persists sweep results across restarts and
	// processes.
	Store *store.Store
	// Backend overrides Store as the engine's memo backend (tests wrap the
	// store in counting shims through this).
	Backend sweep.MemoBackend
	// Cluster overrides Store as the cluster memo's persistent backend
	// (tests wrap the store in counting shims through this).
	Cluster workloads.StatsBackend
	// Replica, when non-nil, is the replicator running over Store: its
	// counters become the store block's "replication" section on /healthz
	// and /metrics, and its push and anti-entropy spans are recorded into
	// the server's trace ring. The caller still starts and closes it.
	Replica *replica.Replicator
	// MaxInflight, when positive, bounds concurrent compute jobs
	// (POST /v1/jobs): excess requests are shed with 429 + Retry-After
	// instead of queued without bound, so one worker under many front-ends
	// degrades loudly rather than drowning. 0 admits everything.
	MaxInflight int
	// Tenants is the identity layer: a registry opened from a keys file
	// makes every non-probe request authenticate (401 unauthorized
	// without a valid key) and enforces per-tenant rate limits and
	// quotas (429 quota_exceeded — distinguishable on the wire from the
	// admission layer's 429 overloaded); each request is then charged to
	// its key alone and X-Dcs-Tenant is not read. Nil (or a registry
	// without a keys file) leaves auth off — today's anonymous behavior —
	// while still accounting dispatched work labelled with X-Dcs-Tenant
	// to its originating tenant.
	Tenants *tenant.Registry
	// Logger defaults to slog.Default().
	Logger *slog.Logger
}

// Stats are the server's monotonic request counters.
type Stats struct {
	Requests  int64 `json:"requests" metric:"dcserved_requests_total,counter" help:"HTTP requests handled."`
	Coalesced int64 `json:"coalesced" metric:"dcserved_coalesced_total,counter" help:"Requests that joined an in-flight render instead of starting one."`
	Errors    int64 `json:"errors" metric:"dcserved_errors_total,counter" help:"Requests answered with a 5xx status."`
}

// JobStats is the compute-endpoint admission state: how many jobs are
// running now, the -max-inflight bound (0 = unlimited), how many requests
// have been shed with a 429 since boot, how many async jobs are waiting
// for a slot, how many shed-time requests instead joined an in-flight
// computation, and how many jobs have been cancelled.
type JobStats struct {
	InFlight    int64 `json:"in_flight" metric:"dcserved_jobs_in_flight,gauge" help:"Compute jobs (counters + cluster) currently running."`
	MaxInflight int64 `json:"max_inflight" metric:"dcserved_jobs_max_inflight,gauge" help:"Admission-control bound on concurrent compute jobs; 0 = unlimited."`
	Shed        int64 `json:"shed" metric:"dcserved_jobs_shed_total,counter" help:"Compute jobs shed with 429 because the worker was saturated."`
	Queued      int64 `json:"queued" metric:"dcserved_jobs_queued,gauge" help:"Async jobs accepted and waiting for an admission slot."`
	Joined      int64 `json:"joined" metric:"dcserved_jobs_joined_total,counter" help:"Saturated requests that joined an in-flight job instead of shedding."`
	Cancelled   int64 `json:"cancelled" metric:"dcserved_jobs_cancelled_total,counter" help:"Jobs cancelled by DELETE /v1/jobs/{id}."`
}

// Server is the dcserved HTTP service. Create with New, expose with
// Handler or Run, stop with Close.
type Server struct {
	opts    report.Options
	engine  *sweep.Engine
	store   *store.Store
	replica *replica.Replicator
	backend sweep.MemoBackend
	log     *slog.Logger
	mux     *http.ServeMux
	// reads is the closed set of read responses; each retains its body (a
	// pure function of the run parameters and its key) once rendered, so
	// it renders once per process. flight only coalesces renders in
	// progress: failures are never retained, and Stats.Coalesced counts
	// only joins of in-flight renders.
	reads     readSet
	flight    *memo.Memo[*read, *rendered]
	etagBasis uint64 // FNV-1a state after the run-parameter prefix of every ETag
	baseCtx   context.Context
	cancel    context.CancelFunc
	started   time.Time

	// Observability (see internal/obs): the trace ring /debug/traces
	// serves, and the latency histograms /metrics exports per endpoint
	// and per job kind.
	recorder *obs.Recorder
	reqHist  *obs.HistogramSet
	jobHist  *obs.HistogramSet

	requests  atomic.Int64
	coalesced atomic.Int64
	errors    atomic.Int64

	// Identity layer (see tenant.go in this package for the middleware).
	tenants *tenant.Registry

	// Compute-job admission control (see worker.go).
	jobSem       chan struct{} // nil = unlimited
	maxInflight  int
	jobsInFlight atomic.Int64
	shed         atomic.Int64
	queuedJobs   atomic.Int64 // async jobs waiting for a slot
	joined       atomic.Int64 // shed-time requests answered from an in-flight cell
	cancelled    atomic.Int64 // jobs cancelled via DELETE /v1/jobs/{id}

	// Async job lifecycle (see async.go) and the per-kind service-time
	// moving average feeding the adaptive Retry-After hint.
	registry *jobs.Registry
	svcMu    sync.Mutex
	svcSecs  map[string]float64
}

// New builds a Server with its own sweep engine (plus the configured memo
// backend) wired into every render.
func New(cfg Config) *Server {
	opts := cfg.Options
	if opts == (report.Options{}) {
		opts = report.DefaultOptions()
	}
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	// The engine and the cluster memo are the server's own, over one
	// persistent backend, so both have the server's restart semantics.
	backend, clusterBackend := cfg.Backend, cfg.Cluster
	if cfg.Store != nil {
		be := cfg.Store.Backend(log)
		if backend == nil {
			backend = be
		}
		if clusterBackend == nil {
			clusterBackend = be
		}
	}
	engine := sweep.NewEngine()
	engine.SetMemoBackend(backend)
	opts.Engine = engine
	opts.Cluster = workloads.NewStatsCache(clusterBackend)
	tenants := cfg.Tenants
	if tenants == nil {
		tenants = tenant.NewRegistry(log)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:    opts,
		engine:  engine,
		store:   cfg.Store,
		replica: cfg.Replica,
		backend: backend,
		log:     log,
		mux:     http.NewServeMux(),
		flight:  memo.NewFlight[*read, *rendered](),
		baseCtx: ctx,
		cancel:  cancel,
		started: time.Now(),
		tenants: tenants,

		recorder: obs.NewRecorder(0),
		reqHist:  obs.NewHistogramSet(nil),
		jobHist:  obs.NewHistogramSet(nil),

		registry: jobs.NewRegistry(0, maxActiveJobs),
		svcSecs:  make(map[string]float64),
	}
	if cfg.MaxInflight > 0 {
		s.maxInflight = cfg.MaxInflight
		s.jobSem = make(chan struct{}, cfg.MaxInflight)
	}
	basis := fnv.New64a()
	fmt.Fprintf(basis, "%d|%g|%d|%d|%d|", opts.Seed, opts.Scale, opts.Instrs,
		opts.Warmup, opts.CoreConfig().Fingerprint())
	s.etagBasis = basis.Sum64()
	s.reads = s.newReadSet()
	s.flight.OnJoin(func() { s.coalesced.Add(1) })
	s.flight.SetName("render")
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	s.mux.HandleFunc("GET /v1/workloads/{name}/counters", s.handleCounters)
	s.mux.HandleFunc("GET /v1/figures/{n}", s.handleFigure)
	s.mux.HandleFunc("GET /v1/tables/{n}", s.handleTable)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	// Async job lifecycle (async.go): list, poll/stream, fetch result,
	// cancel. Job IDs double as trace IDs, so a job's timeline is at
	// /debug/traces under the same identifier.
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleJobCancel)
	// Store replication plane (replica.go in this package): push ingest,
	// digest export, record export. Authenticated like any /v1 route.
	s.registerReplicaRoutes()
	// The trace ring is also on the service port (not only -debug-addr):
	// correlating a front-end's trace with a worker's means asking every
	// node, and workers are addressed by their service port.
	s.mux.Handle("GET /debug/traces", obs.TracesHandler(s.recorder))
	if s.replica != nil {
		s.replica.SetRecorder(s.recorder)
	}
	return s
}

// Recorder exposes the server's trace ring — what a -debug-addr listener
// serves alongside pprof.
func (s *Server) Recorder() *obs.Recorder { return s.recorder }

// Close cancels the server's base context, aborting in-flight sweeps.
// Call it after (not instead of) http.Server.Shutdown: Shutdown drains
// politely, Close is the hard stop for whatever outlived the grace period.
func (s *Server) Close() { s.cancel() }

// Stats snapshots the request counters.
func (s *Server) Stats() Stats {
	return Stats{
		Requests:  s.requests.Load(),
		Coalesced: s.coalesced.Load(),
		Errors:    s.errors.Load(),
	}
}

// JobStats snapshots the compute-endpoint admission state.
func (s *Server) JobStats() JobStats {
	return JobStats{
		InFlight:    s.jobsInFlight.Load(),
		MaxInflight: int64(s.maxInflight),
		Shed:        s.shed.Load(),
		Queued:      s.queuedJobs.Load(),
		Joined:      s.joined.Load(),
		Cancelled:   s.cancelled.Load(),
	}
}

// Handler returns the service's root handler: the v1 mux wrapped in
// request logging, tracing, latency measurement and — when a keys file
// is loaded — tenant authentication and rate limiting. Every non-probe
// request gets a trace — adopted from the X-Dcs-Trace header when the
// caller sent a valid ID (a front-end dispatching a job), fresh
// otherwise — echoed in the response header, recorded into the ring on
// completion, and stamped as trace=<id> on the request log line.
// Probes (/healthz, /metrics, /debug/*) get neither traces nor
// histogram samples — a scrape every few seconds would wash both the
// ring and the latency distribution out with noise — and bypass auth,
// so load balancers and Prometheus need no credentials.
//
// The request line is logged at Info only for a status ≥ 400, so
// refusals and failures stay visible with their trace id; successes,
// 304s and probes log at Debug — the ring and the latency histograms
// already hold every one of them.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		probe := r.URL.Path == "/healthz" || r.URL.Path == "/metrics" ||
			strings.HasPrefix(r.URL.Path, "/debug/")
		var tr *obs.Trace
		var deny *apiError
		if !probe {
			tr = s.recorder.StartTrace(r.Method+" "+r.URL.Path, r.Header.Get(obs.TraceHeader))
			rec.traceID[0] = tr.ID()
			w.Header()[obs.TraceHeader] = rec.traceID[:]
			r = r.WithContext(obs.With(r.Context(), tr))
			// Identity before dispatch: the denial is traced and logged
			// like any response, but the mux never sees the request.
			var tn *tenant.Tenant
			tn, deny = s.admitTenant(rec, r)
			if tn != nil {
				r = r.WithContext(tenant.With(r.Context(), tn))
				tr.SetAttr("tenant", tn.ID())
			}
		}
		start := time.Now()
		if deny != nil {
			writeAPIError(rec, r, deny)
		} else {
			s.mux.ServeHTTP(rec, r) // sets r.Pattern
		}
		dur := time.Since(start)
		if rec.status >= 500 {
			s.errors.Add(1)
		}
		if !probe {
			// Label by the mux pattern, not the raw path: every workload's
			// counters URL is one endpoint, not a cardinality explosion. A
			// denied request never reached the mux, so it is matched here.
			pattern := r.Pattern
			if deny != nil {
				_, pattern = s.mux.Handler(r)
			}
			if pattern == "" {
				pattern = "unmatched"
			}
			s.reqHist.Observe(pattern, dur)
			tr.SetAttr("status", strconv.Itoa(rec.status))
			tr.Finish()
		}
		lvl := slog.LevelDebug
		if rec.status >= 400 {
			lvl = slog.LevelInfo
		}
		if !s.log.Enabled(r.Context(), lvl) {
			return
		}
		args := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"bytes", rec.bytes,
			"dur", dur.Round(time.Microsecond),
			"remote", r.RemoteAddr,
		}
		if id := tr.ID(); id != "" {
			args = append(args, "trace", id)
		}
		s.log.Log(r.Context(), lvl, "request", args...)
	})
}

// shutdownGrace is how long Run lets in-flight requests finish once its
// context is cancelled.
const shutdownGrace = 15 * time.Second

// Run serves on addr until ctx is cancelled, then shuts down: new
// connections stop immediately, in-flight requests get shutdownGrace to
// finish, and after that the base context is cancelled so remaining sweeps
// abort with 503s. Run returns once the listener is fully drained or torn down.
func (s *Server) Run(ctx context.Context, addr string) error {
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	s.log.Info("dcserved listening", "addr", addr,
		"scale", s.opts.Scale, "seed", s.opts.Seed,
		"instrs", s.opts.Instrs, "warmup", s.opts.Warmup,
		"store", s.store != nil)
	select {
	case err := <-errc:
		return err // listener died before shutdown was asked for
	case <-ctx.Done():
	}
	s.log.Info("shutting down", "grace", shutdownGrace)
	shctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	err := hs.Shutdown(shctx)
	s.Close() // hard-stop sweeps that outlived the grace period
	if errors.Is(err, context.DeadlineExceeded) {
		err = hs.Close()
	}
	return err
}

// statusRecorder captures what the handler wrote for the request log. It
// also holds the X-Dcs-Trace header value (len == cap, so an Add copies),
// which then costs no allocation of its own.
type statusRecorder struct {
	http.ResponseWriter
	status  int
	bytes   int
	traceID [1]string
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	n, err := r.ResponseWriter.Write(p)
	r.bytes += n
	return n, err
}

// Flush forwards to the underlying writer so SSE streams (GET
// /v1/jobs/{id} with Accept: text/event-stream) survive the logging
// wrapper.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// health is the /healthz document. /metrics renders the same document:
// every number in it declares its family with a metric tag (see
// metrics.go), so the two surfaces cannot drift apart.
type health struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds" metric:"dcserved_uptime_seconds,gauge" help:"Seconds since the server started."`
	// ConfigFP is the default machine's fingerprint at this server's
	// warmup — exactly what a counters job key's ConfigFP must be, so
	// a client can build valid keys from /healthz alone.
	ConfigFP string        `json:"config_fp"`
	Stats    Stats         `json:"stats"`
	Jobs     JobStats      `json:"jobs"`
	Tenants  *tenantReport `json:"tenants,omitempty"`
	Store    *storeReport  `json:"store,omitempty"`
}

// tenantReport is the /healthz "tenants" block: whether auth is on, and
// every tenant's limits + usage, sorted by id. Omitted entirely on a
// server that has never seen an identified request, so pre-multi-tenant
// healthz consumers see the same shape as before.
type tenantReport struct {
	Auth      bool              `json:"auth"`
	PerTenant []tenant.Snapshot `json:"per_tenant,omitempty"`
}

// storeReport is the /healthz "store" block: the result store's counters
// (zero on a storeless dispatch front-end), the dispatch backend's when
// the engine forwards misses to workers, and the replicator's when one
// runs over the store.
type storeReport struct {
	store.Stats
	Dispatch    *dispatch.Stats `json:"dispatch,omitempty"`
	Replication *replica.Stats  `json:"replication,omitempty"`
}

// health snapshots the /healthz document.
func (s *Server) health() health {
	h := health{Status: "ok", UptimeSeconds: time.Since(s.started).Seconds(),
		ConfigFP: fmt.Sprintf("%016x", s.opts.CoreConfig().Fingerprint()),
		Stats:    s.Stats(), Jobs: s.JobStats()}
	if snaps := s.tenants.Snapshots(); s.tenants.Enabled() || len(snaps) > 0 {
		h.Tenants = &tenantReport{Auth: s.tenants.Enabled(), PerTenant: snaps}
	}
	remote, _ := s.backend.(*dispatch.RemoteBackend)
	if s.store == nil && remote == nil {
		return h
	}
	h.Store = &storeReport{}
	if s.store != nil {
		h.Store.Stats = s.store.Stats()
	}
	if remote != nil {
		d := remote.Stats()
		h.Store.Dispatch = &d
	}
	if s.replica != nil {
		rs := s.replica.Stats()
		h.Store.Replication = &rs
	}
	return h
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.health())
}

// indentJSON is the one JSON encoding of every body the server writes,
// rendered or not: two-space indented, newline-terminated.
func indentJSON(v any) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return b.Bytes(), err
}

// writeJSON sends v with status as indented JSON. Every value it is given
// has a static, encodable type, so there is no encode error to report.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, _ := indentJSON(v)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
