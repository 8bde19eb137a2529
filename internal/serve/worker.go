package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/obs"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/tenant"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

// This file is the compute side of dcserved: POST /v1/jobs makes any
// dcserved a job worker. A job request is kind-tagged with the store's
// record kinds — "counters" runs one characterization sweep key,
// "cluster" runs one cluster experiment (a Figure 2/5 / Table I cell) —
// and the answer is the store's checksummed, kind-tagged record of the
// result: the same bytes the store persists, so the caller verifies kind,
// key and checksum with the store's own codec and can write the record
// through untouched. A job kind is a store.Kind and two functions handed
// to newRunner — compute and memo peek — plus its case in buildRunner; the
// dispatch, admission, booking, async-lifecycle and observability
// machinery is kind-agnostic.
//
// By default a job blocks the request until its record is ready (the wire
// contract every dispatch front-end speaks). With ?wait=false or
// "async": true in the body the job instead runs in the background and
// the response is its id — see async.go for the lifecycle endpoints.

// JobRequest is the body of POST /v1/jobs. Kind selects the computation
// (store.KindCounters or store.KindCluster) and how Key is decoded: a
// sweep.Key for counters, a workloads.StatsKey for cluster. Warmup is
// meaningful for counters only — the run parameter the key's config
// fingerprint was derived from, so the worker can rebuild the machine
// config and prove it matches before simulating. Async (equivalently the
// ?wait=false query parameter) detaches the job from the request: the
// response is 202 + the job's id instead of its result record. The
// dispatch layer is the intended client, but the contract is plain JSON
// so anything can drive a worker.
type JobRequest struct {
	Kind   string          `json:"kind"`
	Key    json.RawMessage `json:"key"`
	Warmup int64           `json:"warmup,omitempty"`
	Async  bool            `json:"async,omitempty"`
}

// maxJobRequest bounds a compute request body; a job key is a few hundred
// bytes, so anything larger is garbage.
const maxJobRequest = 1 << 20

// The Retry-After hint a saturated worker sends with a 429 is derived
// from real saturation (see retryAfterSeconds) and clamped to this
// window — the same 1s..1m range the dispatch layer's shed demotion
// enforces, so a worker can never ask to be demoted longer than a
// front-end would honour.
const (
	minRetryAfterSeconds = 1
	maxRetryAfterSeconds = 60
)

// serviceEWMAWeight is the moving-average weight of the newest completed
// job in the per-kind service-time estimate: heavy enough to track a
// workload shift within a few jobs, light enough that one outlier does
// not whipsaw the shed hint.
const serviceEWMAWeight = 0.3

// maxActiveJobs bounds async jobs accepted but not yet terminal
// (queued + running): past it, submissions shed like any saturated
// request. Without the bound an async client could queue without limit —
// exactly what admission control exists to refuse.
const maxActiveJobs = 256

// Job guard rails: a key asking for an absurd computation would tie a
// worker up for hours — and under -max-inflight would pin an admission
// slot while legitimate jobs shed — so refuse clearly instead of
// obliging. For cluster jobs the slave count scales the simulated
// hardware and the scale the input bytes; for counters jobs the trace
// length is the cost (maxCounterInstrs is ~1000x the default run, tens
// of seconds of simulation, far above any legitimate sweep).
const (
	maxClusterSlaves = 4096
	maxClusterScale  = 10.0
	maxCounterInstrs = 1_000_000_000
)

// jobRunner is one validated job, ready to admit and execute: exec runs
// the computation under ctx and returns the checksummed record; join
// collects the result of an in-flight or memoized computation for the
// same key without claiming an admission slot (ok=false when there is
// nothing to join — the caller sheds as before). instrs is the job's
// instruction cost for tenant quota accounting (0 for kinds whose cost
// is not instruction-shaped).
type jobRunner struct {
	kind   string
	instrs int64
	exec   func(ctx context.Context) ([]byte, *apiError)
	join   func(ctx context.Context) ([]byte, *apiError, bool)
}

// buildRunner decodes and validates one job request into a runner. All
// request-shape and key-validity errors (bad JSON, unknown workload,
// over-cap trace, fingerprint mismatch) surface here, before any
// admission decision — a bad key answers its 4xx even on a saturated
// worker, and an async submission is refused before a job id is minted.
func (s *Server) buildRunner(req JobRequest) (*jobRunner, *apiError) {
	switch req.Kind {
	case store.KindCounters:
		var key sweep.Key
		if err := json.Unmarshal(req.Key, &key); err != nil {
			return nil, &apiError{http.StatusBadRequest, codeBadRequest, "unreadable counters job key: " + err.Error()}
		}
		return s.counterRunner(key, req.Warmup)
	case store.KindCluster:
		var key workloads.StatsKey
		if err := json.Unmarshal(req.Key, &key); err != nil {
			return nil, &apiError{http.StatusBadRequest, codeBadRequest, "unreadable cluster job key: " + err.Error()}
		}
		return s.clusterRunner(key)
	default:
		return nil, &apiError{http.StatusBadRequest, codeBadRequest, fmt.Sprintf("unknown job kind %q (want %q or %q)",
			req.Kind, store.KindCounters, store.KindCluster)}
	}
}

// newRunner builds a validated job's runner from its record kind, its key
// and two functions: compute runs the job, peek joins an in-flight or
// memoized run of the same key (ok=false when there is none); the result
// is answered as the kind's store record. Failures map here, once for
// every kind: a server shutting down or a cancelled run is 503
// shutting_down, anything else the sanitized 500, logged with logArgs.
func newRunner[K comparable, T any](s *Server, kind store.Kind[K, T], key K, instrs int64, compute func(context.Context) (*T, error),
	peek func(context.Context) (*T, error, bool), logArgs ...any) *jobRunner {
	record := func(ctx context.Context, v *T) ([]byte, *apiError) {
		body, err := kind.Encode(key, v)
		if err != nil {
			return nil, s.internal(ctx, kind.Name+" record encode failed", err, logArgs...)
		}
		return body, nil
	}
	shuttingDown := &apiError{http.StatusServiceUnavailable, codeShuttingDown, "worker shutting down"}
	return &jobRunner{
		kind:   kind.Name,
		instrs: instrs,
		exec: func(ctx context.Context) ([]byte, *apiError) {
			if s.baseCtx.Err() != nil {
				return nil, shuttingDown
			}
			v, err := compute(ctx)
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, shuttingDown
			}
			if err != nil {
				return nil, s.internal(ctx, "worker "+kind.Name+" job failed", err, logArgs...)
			}
			return record(ctx, v)
		},
		join: func(ctx context.Context) ([]byte, *apiError, bool) {
			v, err, ok := peek(ctx)
			if !ok || err != nil {
				// Nothing in flight, or the joined flight failed: fall back
				// to the shed the caller was heading for anyway.
				return nil, nil, false
			}
			body, ae := record(ctx, v)
			return body, ae, true
		},
	}
}

// counterRunner validates one sweep key and returns its runner.
func (s *Server) counterRunner(key sweep.Key, warmup int64) (*jobRunner, *apiError) {
	wl, err := core.ByName(key.Name)
	if err != nil {
		return nil, &apiError{http.StatusNotFound, codeNotFound, err.Error()}
	}
	// The profile is the client's: it sizes the generator's Zipf tables
	// and steers its coin flips, so it must lie in the model's domain.
	if err := key.Profile.Validate(); err != nil {
		return nil, &apiError{http.StatusBadRequest, codeBadRequest, "counters job key: " + err.Error()}
	}
	// The effective trace length is MaxInstrs, or the profile's own cap
	// when MaxInstrs is zero (the engine's convention; the tracer in turn
	// defaults a zero profile cap to 2M instructions, so zero-everywhere
	// keys are legitimate and bounded). Only an absurdly long explicit
	// length is refused — it would pin an admission slot for hours.
	instrs := key.MaxInstrs
	if instrs <= 0 {
		instrs = key.Profile.MaxInstrs
	}
	if instrs > maxCounterInstrs {
		return nil, &apiError{http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("trace length %d exceeds the %d cap", instrs, int64(maxCounterInstrs))}
	}
	// The worker simulates the paper's machine at the caller's warmup; a
	// fingerprint mismatch means the caller runs a machine this worker
	// cannot rebuild from the request, and wrong-machine counters must
	// never be returned as if they matched.
	cfg := uarch.DefaultConfig()
	cfg.Warmup = warmup
	if got := cfg.Fingerprint(); got != key.ConfigFP {
		return nil, &apiError{http.StatusConflict, codeConflict, fmt.Sprintf(
			"config fingerprint mismatch: default machine at warmup %d is %016x, request wants %016x",
			warmup, got, key.ConfigFP)}
	}
	return newRunner(s, store.Counters, key, instrs,
		func(ctx context.Context) (*uarch.Counters, error) {
			// The key's profile is the trace spec (Job's uniqueness
			// contract: name + profile identify the trace; the generator is
			// keyed by name), so the engine's memo key here equals key
			// exactly — which is what makes peek able to find it.
			jobs := []sweep.Job{{Name: wl.Name, Profile: key.Profile, Gen: wl.Gen}}
			cs, err := s.engine.Run(ctx, jobs, cfg, key.MaxInstrs, sweep.RunOptions{Workers: 1})
			if err != nil {
				return nil, err
			}
			return cs[0], nil
		},
		func(ctx context.Context) (*uarch.Counters, error, bool) { return s.engine.Join(ctx, key) },
		"workload", key.Name), nil
}

// clusterRunner validates one cluster experiment key and returns its
// runner.
func (s *Server) clusterRunner(key workloads.StatsKey) (*jobRunner, *apiError) {
	// Only the exact registry name: ByName folds case, but the key is
	// memoized and stored as sent, so "grep" beside "Grep" would simulate
	// and store the same cell twice.
	wl := workloads.ByName(key.Workload)
	if wl == nil || wl.Name != key.Workload {
		return nil, &apiError{http.StatusNotFound, codeNotFound, fmt.Sprintf("unknown cluster workload %q", key.Workload)}
	}
	if key.Slaves < 1 || key.Slaves > maxClusterSlaves {
		return nil, &apiError{http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("cluster slave count %d outside [1, %d]", key.Slaves, maxClusterSlaves)}
	}
	if !(key.Scale > 0) || key.Scale > maxClusterScale {
		return nil, &apiError{http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("cluster scale %g outside (0, %g]", key.Scale, maxClusterScale)}
	}
	return newRunner(s, store.Cluster, key, 0,
		func(ctx context.Context) (*workloads.Stats, error) {
			return s.opts.Cluster.Do(ctx, key, func(ctx context.Context) (*workloads.Stats, error) {
				// A cluster simulation cannot be stopped mid-run (workload
				// Run takes no context), so cancellation is checked at the
				// threshold: waiters already get out of the flight.
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				env := workloads.NewEnv(key.Slaves, key.Scale, key.Seed)
				return wl.Run(env)
			})
		},
		func(ctx context.Context) (*workloads.Stats, error, bool) { return s.opts.Cluster.Join(ctx, key) },
		"workload", key.Workload, "slaves", key.Slaves), nil
}

// handleJobs runs one compute job and answers with the checksummed store
// record of the result — or, for an async submission, with the job's id.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobRequest)).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "unreadable job request: "+err.Error())
		return
	}
	run, ae := s.buildRunner(req)
	// The tenant's cumulative job quotas (jobs by kind, simulated
	// instructions) refuse before any admission decision, even on an idle
	// worker: its budget, not the cluster's capacity, ran out.
	if tn := tenant.From(r.Context()); ae == nil && !tn.CheckJob(run.kind, run.instrs) {
		ae = &apiError{http.StatusTooManyRequests, codeQuotaExceeded,
			fmt.Sprintf("tenant %q is over its %s job quota", tn.ID(), run.kind)}
	}
	if ae != nil {
		writeAPIError(w, r, ae)
		return
	}
	if req.Async || queryGet(r.URL.RawQuery, "wait") == "false" {
		s.submitAsync(w, r, run)
		return
	}
	s.runBlocking(w, r, run)
}

// runBlocking is the classic wire contract: admit (or join, or shed),
// execute under the request's context, answer with the record.
//
// The context is the request's merged with the server's base context:
// a client that hangs up stops paying for its job — its admission slot
// frees and, through the memo's refcounted cancellation, the underlying
// simulation stops once no other caller shares it — and shutdown still
// aborts everything. Coalesced jobs survive any one client's disconnect
// because every sharer holds its own reference on the flight cell.
func (s *Server) runBlocking(w http.ResponseWriter, r *http.Request, run *jobRunner) {
	ctx, cancel := s.jobCtx(r.Context())
	defer cancel()
	release, ok := s.acquire(ctx, false)
	if !ok {
		// Shed-or-join: a saturated worker can still answer a request for
		// a key it is already computing (or has memoized) — joining the
		// in-flight cell costs no slot and no duplicate simulation.
		body, ae, joined := run.join(ctx)
		switch {
		case !joined:
			s.shedJob(w, r, run.kind)
		case ae != nil:
			writeAPIError(w, r, ae)
		default:
			s.joined.Add(1)
			writeRecord(w, body)
		}
		return
	}
	defer release()
	body, ae := s.execute(ctx, run)
	if ae != nil {
		writeAPIError(w, r, ae)
		return
	}
	writeRecord(w, body)
}

// execute runs one admitted job and books it, for both submission modes:
// every run adds its duration to the job-latency histogram, and a
// successful one feeds the service-time estimate and is charged to the
// request's tenant. The charge lands on execution, not admission: shed,
// joined and failed jobs cost the tenant nothing.
func (s *Server) execute(ctx context.Context, run *jobRunner) ([]byte, *apiError) {
	start := time.Now()
	body, ae := run.exec(ctx)
	dur := time.Since(start)
	s.jobHist.Observe(run.kind, dur)
	if ae != nil {
		return nil, ae
	}
	tenant.From(ctx).ChargeJob(run.kind, run.instrs)
	s.observeService(run.kind, dur)
	return body, nil
}

// jobCtx derives a compute job's context: the parent's cancellation and
// values (trace, tenant), merged with the server's base context so
// shutdown aborts every job. The returned cancel must be called to
// release the merge.
func (s *Server) jobCtx(parent context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// acquire claims an admission slot; with -max-inflight set, at most that
// many compute jobs run at once. A blocking job (wait=false) is refused
// when none is free — it then joins or sheds, and no slot is held across
// a client-paced read. An async job holds no connection open, so it waits
// as long as ctx allows; the end of its admission span marks it admitted.
func (s *Server) acquire(ctx context.Context, wait bool) (release func(), ok bool) {
	sp := obs.Start(ctx, "admission")
	if s.jobSem != nil {
		select {
		case s.jobSem <- struct{}{}:
		default:
			if !wait {
				sp.End("shed", "true")
				return nil, false
			}
			select {
			case s.jobSem <- struct{}{}:
			case <-ctx.Done():
				sp.End("shed", "false", "cancelled", "true")
				return nil, false
			}
		}
	}
	s.jobsInFlight.Add(1)
	sp.End("shed", "false")
	return s.releaseSlot, true
}
func (s *Server) releaseSlot() {
	s.jobsInFlight.Add(-1)
	if s.jobSem != nil {
		<-s.jobSem
	}
}

// shedJob writes the admission-control 429 — code overloaded, never
// quota_exceeded: this refusal is about the worker's capacity, not the
// caller's budget — with the adaptive Retry-After hint.
func (s *Server) shedJob(w http.ResponseWriter, r *http.Request, kind string) {
	s.shed.Add(1)
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds(kind)))
	writeError(w, r, http.StatusTooManyRequests, codeOverloaded,
		fmt.Sprintf("worker saturated: %d jobs in flight (-max-inflight)", s.maxInflight))
}

// observeService folds one successful job's duration into the per-kind
// service-time moving average feeding the adaptive Retry-After hint.
// Failures are excluded: they return in milliseconds and would talk the
// estimate down just when the worker is struggling.
func (s *Server) observeService(kind string, d time.Duration) {
	s.svcMu.Lock()
	if cur, ok := s.svcSecs[kind]; ok {
		s.svcSecs[kind] = (1-serviceEWMAWeight)*cur + serviceEWMAWeight*d.Seconds()
	} else {
		s.svcSecs[kind] = d.Seconds()
	}
	s.svcMu.Unlock()
}

// retryAfterSeconds derives the shed hint from real saturation: the
// expected time for the worker to drain its current load of this kind —
// average service time × depth (running + queued jobs) / slots — clamped
// to the 1s..1m window the dispatch layer's shed demotion enforces. A
// worker with no service history yet answers the old fixed hint of 1s;
// a deeply backed-up one asks front-ends to stay away proportionally
// longer instead of inviting a retry storm every second.
func (s *Server) retryAfterSeconds(kind string) int {
	s.svcMu.Lock()
	avg := s.svcSecs[kind]
	s.svcMu.Unlock()
	if avg <= 0 {
		avg = 1
	}
	depth := float64(s.jobsInFlight.Load() + s.queuedJobs.Load())
	if depth < 1 {
		depth = 1
	}
	slots := float64(s.maxInflight)
	if slots < 1 {
		slots = 1
	}
	secs := int(math.Ceil(avg * depth / slots))
	if secs < minRetryAfterSeconds {
		secs = minRetryAfterSeconds
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return secs
}

// writeRecord sends one store record as a job response.
func writeRecord(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}
