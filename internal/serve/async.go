package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"dcbench/internal/jobs"
	"dcbench/internal/obs"
	"dcbench/internal/tenant"
)

// This file is the async half of the job lifecycle: POST /v1/jobs with
// ?wait=false (or "async": true) detaches the job from the submitting
// request and answers 202 with a job id; the job then moves through the
// internal/jobs state machine
//
//	queued → admitted → simulating → stored → done | failed | cancelled
//
// with the middle states derived from the job's own obs trace: the job id
// IS a trace id, the runner attaches the job's ObserveSpan hook to that
// trace, and the spans the engine and store already record double as
// progress events. GET /v1/jobs/{id} polls the state (or streams it as
// SSE under Accept: text/event-stream), GET /v1/jobs/{id}/result fetches
// the finished record, DELETE /v1/jobs/{id} cancels — releasing the
// admission slot and, through the memo's refcounted cancellation,
// stopping the underlying simulation once no other caller shares it.

// submitAsync accepts one validated job for background execution. The
// request's tenant owns the job: its id scopes every lifecycle endpoint.
// The job's context keeps the request's tenant but not its
// cancellation, so the job is booked exactly as a blocking job is.
func (s *Server) submitAsync(w http.ResponseWriter, r *http.Request, run *jobRunner) {
	// The job's own trace outlives the submit request and carries the
	// job's id, so /v1/jobs/{id} and /debug/traces name the same thing;
	// its span stream drives the state machine.
	id := obs.NewID()
	ctx, cancel := s.jobCtx(context.WithoutCancel(r.Context()))
	job := s.registry.New(id, run.kind, tenant.From(ctx).ID(), cancel)
	if job == nil { // maxActiveJobs are queued or running
		cancel()
		s.shedJob(w, r, run.kind)
		return
	}
	tr := s.recorder.StartTrace("job "+run.kind, id)
	ctx = obs.With(ctx, tr)
	tr.OnSpan(job.ObserveSpan)
	s.queuedJobs.Add(1)
	go s.runAsync(ctx, job, tr, run)

	w.Header().Set("Location", "/v1/jobs/"+id)
	writeJSON(w, http.StatusAccepted, job.Snapshot())
}

// runAsync drives one detached job: wait for a slot (cancellable — a job
// DELETEd while queued never runs), execute, settle the terminal state.
func (s *Server) runAsync(ctx context.Context, job *jobs.Job, tr *obs.Trace, run *jobRunner) {
	defer tr.Finish()
	release, ok := s.acquire(ctx, true) // its span flips the job to admitted
	s.queuedJobs.Add(-1)
	var body []byte
	var ae *apiError
	if ok {
		defer release()
		body, ae = s.execute(ctx, run)
	}
	switch {
	case ctx.Err() != nil && s.baseCtx.Err() != nil:
		// A server shutdown is a failure: the client may retry elsewhere.
		job.Fail(http.StatusServiceUnavailable, codeShuttingDown, "worker shutting down")
	case ctx.Err() != nil:
		// Cancelled while queued or mid-run; a DELETE has usually latched
		// the state already and this is a no-op.
		job.Cancel()
	case ae != nil:
		job.Fail(ae.status, ae.code, ae.msg)
	default:
		job.Complete(body)
	}
}

// visible reports whether the requesting tenant may see job. A job owned
// by a different tenant answers exactly like a job that does not exist —
// same 404, same message — so a tenant cannot probe for other tenants'
// job ids. Anonymous jobs (owner "") stay visible to everyone, which
// keeps the auth-off behavior identical to before tenancy existed.
func visible(job *jobs.Job, r *http.Request) bool {
	owner := job.Tenant()
	return owner == "" || owner == tenant.From(r.Context()).ID()
}

// jobForRequest resolves the path's job id within the requesting
// tenant's scope; when there is no such job it answers 404 and returns nil.
func (s *Server) jobForRequest(w http.ResponseWriter, r *http.Request) *jobs.Job {
	job, ok := s.registry.Get(r.PathValue("id"))
	if !ok || !visible(job, r) {
		writeError(w, r, http.StatusNotFound, codeNotFound, "unknown job")
		return nil
	}
	return job
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	snaps := []jobs.Snapshot{}
	for _, j := range s.registry.Jobs() {
		if visible(j, r) {
			snaps = append(snaps, j.Snapshot())
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}{snaps})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job := s.jobForRequest(w, r)
	if job == nil {
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamJob(w, r, job)
		return
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job := s.jobForRequest(w, r)
	if job == nil {
		return
	}
	if body, done := job.Result(); done {
		writeRecord(w, body)
		return
	}
	snap := job.Snapshot()
	switch snap.State {
	case jobs.StateFailed:
		// The failure answers as the blocking path would have: a shutdown
		// reads 503 shutting_down. snap.Error is already client-safe:
		// internal failures were sanitized to a generic trace-naming
		// message by internal, before the registry stored them.
		status, code := job.Failure()
		writeError(w, r, status, code, snap.Error)
	case jobs.StateCancelled:
		writeError(w, r, http.StatusGone, codeGone, "job cancelled")
	default:
		writeError(w, r, http.StatusConflict, codeConflict, fmt.Sprintf("job not finished (state %q)", snap.State))
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job := s.jobForRequest(w, r)
	if job == nil {
		return
	}
	// Cancel latches the terminal state first (span-derived progress can
	// no longer change it) and then cancels the job's context, which
	// unwinds the runner: the admission wait aborts, or the memo joiner
	// leaves and — when it was the last — the simulation itself stops.
	if job.Cancel() {
		s.cancelled.Add(1)
	}
	writeJSON(w, http.StatusOK, job.Snapshot())
}

// streamJob serves one job's transitions as Server-Sent Events: every
// state change already recorded, then each new one as it lands, one
// `event: state` per transition, closing after the terminal state.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, job *jobs.Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusNotImplemented, codeNotImplemented, "streaming unsupported")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	snap, wake, stop := job.Subscribe()
	defer stop()
	sent := 0
	emit := func(snap jobs.Snapshot) bool {
		for _, t := range snap.History[sent:] {
			data, err := json.Marshal(t)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "event: state\ndata: %s\n\n", data)
			sent++
		}
		fl.Flush()
		return snap.State.Terminal()
	}
	if emit(snap) {
		return
	}
	for {
		select {
		case <-wake:
			if emit(job.Snapshot()) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}
