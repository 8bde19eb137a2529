package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

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
// submitting tenant owns the job: its id scopes every lifecycle endpoint
// and the detached run context carries the tenant, so the quota charge
// lands on completion exactly as it does for a blocking job.
func (s *Server) submitAsync(w http.ResponseWriter, r *http.Request, run *jobRunner) {
	if s.registry.Active() >= maxActiveJobs {
		s.shedJob(w, r, run.kind)
		return
	}
	// The job's own trace outlives the submit request and carries the
	// job's id, so /v1/jobs/{id} and /debug/traces name the same thing;
	// its span stream drives the state machine.
	id := obs.NewID()
	tr := s.recorder.StartTrace("job "+run.kind, id)
	ctx, cancel := context.WithCancel(s.baseCtx)
	ctx = obs.With(ctx, tr)
	tn := tenant.From(r.Context())
	ctx = tenant.With(ctx, tn)
	job := s.registry.New(id, run.kind, tn.ID(), cancel)
	tr.OnSpan(job.ObserveSpan)
	s.queuedJobs.Add(1)
	go s.runAsync(ctx, job, tr, run)

	w.Header().Set("Location", "/v1/jobs/"+id)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	encodeSnapshot(w, job.Snapshot())
}

// runAsync drives one detached job: wait for a slot (cancellable — a job
// DELETEd while queued never runs), execute, settle the terminal state.
func (s *Server) runAsync(ctx context.Context, job *jobs.Job, tr *obs.Trace, run *jobRunner) {
	defer tr.Finish()
	sp := obs.Start(ctx, "admission")
	release, err := s.acquireWait(ctx)
	s.queuedJobs.Add(-1)
	if err != nil {
		sp.End("shed", "false", "cancelled", "true")
		s.settleCancelled(job)
		return
	}
	sp.End("shed", "false") // the span observer flips the job to admitted
	defer release()
	start := time.Now()
	body, je := run.exec(ctx)
	dur := time.Since(start)
	s.jobHist.Observe(run.kind, dur)
	switch {
	case ctx.Err() != nil:
		// Cancelled (or shut down) mid-run; a DELETE has usually latched
		// the state already and this is a no-op.
		s.settleCancelled(job)
	case je != nil:
		job.Fail(je.msg)
	default:
		tenant.From(ctx).ChargeJob(run.kind, run.instrs)
		s.observeService(run.kind, dur)
		job.Complete(body)
	}
}

// settleCancelled records why a job's context died: a server shutdown is
// a failure (the client may retry elsewhere), anything else is the job's
// own cancellation.
func (s *Server) settleCancelled(job *jobs.Job) {
	if s.baseCtx.Err() != nil {
		job.Fail("worker shutting down")
		return
	}
	job.Cancel()
}

// jobForRequest resolves the path's job id within the requesting
// tenant's scope. A job owned by a different tenant answers exactly like
// a job that does not exist — same 404, same message — so a tenant
// cannot probe for other tenants' job ids. Anonymous jobs (owner "")
// stay visible to everyone, which keeps the auth-off behavior identical
// to before tenancy existed.
func (s *Server) jobForRequest(r *http.Request) (*jobs.Job, bool) {
	job, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		return nil, false
	}
	if owner := job.Tenant(); owner != "" && owner != tenant.IDFrom(r.Context()) {
		return nil, false
	}
	return job, true
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	caller := tenant.IDFrom(r.Context())
	snaps := []jobs.Snapshot{}
	for _, j := range s.registry.Jobs() {
		if owner := j.Tenant(); owner != "" && owner != caller {
			continue
		}
		snaps = append(snaps, j.Snapshot())
	}
	writeJSON(w, struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}{snaps})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobForRequest(r)
	if !ok {
		writeError(w, r, http.StatusNotFound, codeNotFound, "unknown job")
		return
	}
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		s.streamJob(w, r, job)
		return
	}
	writeJSON(w, job.Snapshot())
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobForRequest(r)
	if !ok {
		writeError(w, r, http.StatusNotFound, codeNotFound, "unknown job")
		return
	}
	if body, done := job.Result(); done {
		writeRecord(w, body)
		return
	}
	snap := job.Snapshot()
	switch snap.State {
	case jobs.StateFailed:
		// snap.Error is already client-safe: internal failures were
		// sanitized to a generic trace-naming message at jobError
		// construction, before the registry stored them.
		writeError(w, r, http.StatusInternalServerError, codeInternal, snap.Error)
	case jobs.StateCancelled:
		writeError(w, r, http.StatusGone, codeGone, "job cancelled")
	default:
		writeError(w, r, http.StatusConflict, codeConflict, fmt.Sprintf("job not finished (state %q)", snap.State))
	}
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobForRequest(r)
	if !ok {
		writeError(w, r, http.StatusNotFound, codeNotFound, "unknown job")
		return
	}
	// Cancel latches the terminal state first (span-derived progress can
	// no longer change it) and then cancels the job's context, which
	// unwinds the runner: the admission wait aborts, or the memo joiner
	// leaves and — when it was the last — the simulation itself stops.
	if job.Cancel() {
		s.cancelled.Add(1)
	}
	writeJSON(w, job.Snapshot())
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

// encodeSnapshot writes one job snapshot as indented JSON (after the
// status line has gone out, so no http.Error on failure).
func encodeSnapshot(w http.ResponseWriter, snap jobs.Snapshot) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}
