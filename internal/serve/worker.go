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
// through untouched. New job kinds add a case to buildRunner and a codec
// beside the others in internal/store/wire.go; the dispatch, admission,
// async-lifecycle and observability machinery is kind-agnostic.
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

// jobError is an HTTP-shaped job failure: the status, stable error code
// and message exactly as the blocking endpoint writes them (async jobs
// store the message).
type jobError struct {
	status int
	code   string
	msg    string
}

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
	exec   func(ctx context.Context) ([]byte, *jobError)
	join   func(ctx context.Context) ([]byte, *jobError, bool)
}

// buildRunner decodes and validates one job request into a runner. All
// request-shape and key-validity errors (bad JSON, unknown workload,
// over-cap trace, fingerprint mismatch) surface here, before any
// admission decision — a bad key answers its 4xx even on a saturated
// worker, and an async submission is refused before a job id is minted.
func (s *Server) buildRunner(req JobRequest) (*jobRunner, *jobError) {
	switch req.Kind {
	case store.KindCounters:
		var key sweep.Key
		if err := json.Unmarshal(req.Key, &key); err != nil {
			return nil, &jobError{http.StatusBadRequest, codeBadRequest, "unreadable counters job key: " + err.Error()}
		}
		return s.counterRunner(key, req.Warmup)
	case store.KindCluster:
		var key workloads.StatsKey
		if err := json.Unmarshal(req.Key, &key); err != nil {
			return nil, &jobError{http.StatusBadRequest, codeBadRequest, "unreadable cluster job key: " + err.Error()}
		}
		return s.clusterRunner(key)
	default:
		return nil, &jobError{http.StatusBadRequest, codeBadRequest, fmt.Sprintf("unknown job kind %q (want %q or %q)",
			req.Kind, store.KindCounters, store.KindCluster)}
	}
}

// internalJobError logs one internal job failure with its trace id and
// returns the client-facing jobError: a generic message naming the
// trace, never the internal error text (the async path stores this
// message verbatim, so the sanitization must happen here, not at the
// write site).
func (s *Server) internalJobError(ctx context.Context, what string, err error, logArgs ...any) *jobError {
	id := obs.From(ctx).ID()
	args := append([]any{"err", err}, logArgs...)
	if id != "" {
		args = append(args, "trace", id)
	}
	s.log.Error(what, args...)
	return &jobError{http.StatusInternalServerError, codeInternal, internalMsg(id)}
}

// counterRunner validates one sweep key and returns its runner.
func (s *Server) counterRunner(key sweep.Key, warmup int64) (*jobRunner, *jobError) {
	wl, err := core.ByName(key.Name)
	if err != nil {
		return nil, &jobError{http.StatusNotFound, codeNotFound, err.Error()}
	}
	// The profile is the client's: it sizes the generator's Zipf tables
	// and steers its coin flips, so it must lie in the model's domain.
	if err := key.Profile.Validate(); err != nil {
		return nil, &jobError{http.StatusBadRequest, codeBadRequest, "counters job key: " + err.Error()}
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
		return nil, &jobError{http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("trace length %d exceeds the %d cap", instrs, int64(maxCounterInstrs))}
	}
	// The worker simulates the paper's machine at the caller's warmup; a
	// fingerprint mismatch means the caller runs a machine this worker
	// cannot rebuild from the request, and wrong-machine counters must
	// never be returned as if they matched.
	cfg := uarch.DefaultConfig()
	cfg.Warmup = warmup
	if got := cfg.Fingerprint(); got != key.ConfigFP {
		return nil, &jobError{http.StatusConflict, codeConflict, fmt.Sprintf(
			"config fingerprint mismatch: default machine at warmup %d is %016x, request wants %016x",
			warmup, got, key.ConfigFP)}
	}
	return &jobRunner{
		kind:   store.KindCounters,
		instrs: instrs,
		exec: func(ctx context.Context) ([]byte, *jobError) {
			// The key's profile is the trace spec (Job's uniqueness
			// contract: name + profile identify the trace; the generator is
			// keyed by name), so the engine's memo key here equals key
			// exactly — which is what makes join able to find it.
			jobs := []sweep.Job{{Name: wl.Name, Profile: key.Profile, Gen: wl.Gen}}
			cs, err := s.engine.Run(ctx, jobs, cfg, key.MaxInstrs, sweep.RunOptions{Workers: 1})
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return nil, &jobError{http.StatusServiceUnavailable, codeShuttingDown, "worker shutting down"}
				}
				return nil, s.internalJobError(ctx, "worker sweep failed", err, "workload", key.Name)
			}
			body, err := store.EncodeCounters(key, cs[0])
			if err != nil {
				return nil, s.internalJobError(ctx, "counters record encode failed", err, "workload", key.Name)
			}
			return body, nil
		},
		join: func(ctx context.Context) ([]byte, *jobError, bool) {
			c, err, ok := s.engine.Join(ctx, key)
			if !ok || err != nil {
				// Nothing in flight, or the joined flight failed: fall back
				// to the shed the caller was heading for anyway.
				return nil, nil, false
			}
			body, err := store.EncodeCounters(key, c)
			if err != nil {
				return nil, s.internalJobError(ctx, "counters record encode failed", err, "workload", key.Name), true
			}
			return body, nil, true
		},
	}, nil
}

// clusterRunner validates one cluster experiment key and returns its
// runner.
func (s *Server) clusterRunner(key workloads.StatsKey) (*jobRunner, *jobError) {
	// Only the exact registry name: ByName folds case, but the key is
	// memoized and stored as sent, so "grep" beside "Grep" would simulate
	// and store the same cell twice.
	wl := workloads.ByName(key.Workload)
	if wl == nil || wl.Name != key.Workload {
		return nil, &jobError{http.StatusNotFound, codeNotFound, fmt.Sprintf("unknown cluster workload %q", key.Workload)}
	}
	if key.Slaves < 1 || key.Slaves > maxClusterSlaves {
		return nil, &jobError{http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("cluster slave count %d outside [1, %d]", key.Slaves, maxClusterSlaves)}
	}
	if !(key.Scale > 0) || key.Scale > maxClusterScale {
		return nil, &jobError{http.StatusBadRequest, codeBadRequest,
			fmt.Sprintf("cluster scale %g outside (0, %g]", key.Scale, maxClusterScale)}
	}
	return &jobRunner{
		kind: store.KindCluster,
		exec: func(ctx context.Context) ([]byte, *jobError) {
			if err := s.baseCtx.Err(); err != nil {
				return nil, &jobError{http.StatusServiceUnavailable, codeShuttingDown, "worker shutting down"}
			}
			st, err := s.opts.Cluster.Do(ctx, key, func(ctx context.Context) (*workloads.Stats, error) {
				// A cluster simulation cannot be stopped mid-run (workload
				// Run takes no context), so cancellation is checked at the
				// threshold: waiters already get out of the flight.
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				env := workloads.NewEnv(key.Slaves, key.Scale, key.Seed)
				return wl.Run(env)
			})
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return nil, &jobError{http.StatusServiceUnavailable, codeShuttingDown, "worker shutting down"}
				}
				return nil, s.internalJobError(ctx, "worker cluster job failed", err,
					"workload", key.Workload, "slaves", key.Slaves)
			}
			body, err := store.EncodeStats(key, st)
			if err != nil {
				return nil, s.internalJobError(ctx, "cluster record encode failed", err, "workload", key.Workload)
			}
			return body, nil
		},
		join: func(ctx context.Context) ([]byte, *jobError, bool) {
			st, err, ok := s.opts.Cluster.Join(ctx, key)
			if !ok || err != nil {
				return nil, nil, false
			}
			body, err := store.EncodeStats(key, st)
			if err != nil {
				return nil, s.internalJobError(ctx, "cluster record encode failed", err, "workload", key.Workload), true
			}
			return body, nil, true
		},
	}, nil
}

// handleJobs runs one compute job and answers with the checksummed store
// record of the result — or, for an async submission, with the job's id.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobRequest)).Decode(&req); err != nil {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "unreadable job request: "+err.Error())
		return
	}
	run, je := s.buildRunner(req)
	if je != nil {
		writeJobError(w, r, je)
		return
	}
	if je := s.checkJobQuota(r, run); je != nil {
		writeJobError(w, r, je)
		return
	}
	if req.Async || r.URL.Query().Get("wait") == "false" {
		s.submitAsync(w, r, run)
		return
	}
	s.runBlocking(w, r, run)
}

// checkJobQuota enforces the requesting tenant's cumulative job quotas
// (jobs by kind, simulated instructions) before any admission decision:
// an over-quota tenant is refused 429 quota_exceeded even on an idle
// worker — its budget, not the cluster's capacity, is what ran out.
func (s *Server) checkJobQuota(r *http.Request, run *jobRunner) *jobError {
	tn := tenant.From(r.Context())
	if tn.CheckJob(run.kind, run.instrs) {
		return nil
	}
	return &jobError{http.StatusTooManyRequests, codeQuotaExceeded,
		fmt.Sprintf("tenant %q is over its %s job quota", tn.ID(), run.kind)}
}

// writeJobError sends one jobError through the envelope.
func writeJobError(w http.ResponseWriter, r *http.Request, je *jobError) {
	writeError(w, r, je.status, je.code, je.msg)
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
	release, ok := s.acquireNow(ctx)
	if !ok {
		// Shed-or-join: a saturated worker can still answer a request for
		// a key it is already computing (or has memoized) — joining the
		// in-flight cell costs no slot and no duplicate simulation.
		if body, je, joined := run.join(ctx); joined {
			if je != nil {
				writeJobError(w, r, je)
				return
			}
			s.joined.Add(1)
			writeRecord(w, body)
			return
		}
		s.shedJob(w, r, run.kind)
		return
	}
	defer release()
	start := time.Now()
	body, je := run.exec(ctx)
	dur := time.Since(start)
	s.jobHist.Observe(run.kind, dur)
	if je != nil {
		writeJobError(w, r, je)
		return
	}
	// The quota charge lands on execution, not admission: shed, joined
	// and failed jobs cost the tenant nothing.
	tenant.From(ctx).ChargeJob(run.kind, run.instrs)
	s.observeService(run.kind, dur)
	writeRecord(w, body)
}

// jobCtx derives a compute job's context: the request's cancellation and
// trace, merged with the server's base context so shutdown aborts jobs
// whose clients are still waiting. The returned cancel must be called to
// release the merge.
func (s *Server) jobCtx(reqCtx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(reqCtx)
	stop := context.AfterFunc(s.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// acquireNow claims an admission slot without waiting: with -max-inflight
// set, at most that many compute jobs run concurrently and the rest are
// refused (the caller then joins or sheds) rather than queued without
// bound. A slot is never held across a client-paced network read, so a
// stalled client cannot pin one.
func (s *Server) acquireNow(ctx context.Context) (func(), bool) {
	sp := obs.Start(ctx, "admission")
	if s.jobSem != nil {
		select {
		case s.jobSem <- struct{}{}:
		default:
			sp.End("shed", "true")
			return nil, false
		}
	}
	sp.End("shed", "false")
	s.jobsInFlight.Add(1)
	return s.releaseSlot, true
}

// acquireWait claims an admission slot, waiting as long as ctx allows —
// the async path, where a queued job holds no connection open.
func (s *Server) acquireWait(ctx context.Context) (func(), error) {
	if s.jobSem == nil {
		s.jobsInFlight.Add(1)
		return s.releaseSlot, nil
	}
	select {
	case s.jobSem <- struct{}{}:
		s.jobsInFlight.Add(1)
		return s.releaseSlot, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
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
