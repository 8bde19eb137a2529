package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"

	"dcbench/internal/obs"
)

// This file is the v1 error contract: every error response carries a
// stable machine-readable code beside the human-readable message, so
// clients branch on meaning instead of parsing prose. The two 429s are
// the motivating case — "you are over YOUR budget" (quota_exceeded,
// actionable by the caller alone) versus "this worker is saturated"
// (overloaded, actionable by retrying elsewhere or later) — but every
// refusal benefits: a dispatch front-end distinguishing a worker's
// validation 4xx from its saturation, a tenant's SDK mapping codes to
// typed errors, an operator grepping logs by code.
//
// The default body is a JSON envelope
//
//	{"error": {"code": "...", "message": "...", "trace_id": "..."}}
//
// carrying the request's trace id so a client error report names the
// exact server-side timeline. Clients that ask for text/plain (and not
// JSON) get the bare message — curl pipelines and the pre-envelope
// scripts keep working — and either way the code also rides the
// X-Dcs-Error-Code header, so even a HEAD or a text client can branch
// without parsing.

// The stable v1 error codes. New refusals reuse one of these unless they
// are genuinely a new kind of "no"; renaming one is an API break.
const (
	codeBadRequest     = "bad_request"     // 400: malformed body, invalid parameter
	codeUnauthorized   = "unauthorized"    // 401: missing, unknown or revoked API key
	codeNotFound       = "not_found"       // 404: unknown workload, job or admin key
	codeNotAcceptable  = "not_acceptable"  // 406: no representation in the requested format
	codeConflict       = "conflict"        // 409: config fingerprint mismatch, job not finished
	codeGone           = "gone"            // 410: job cancelled
	codeQuotaExceeded  = "quota_exceeded"  // 429: the tenant's own rate or quota budget is spent
	codeOverloaded     = "overloaded"      // 429: this worker is saturated (-max-inflight)
	codeInternal       = "internal"        // 500: server-side failure; detail is in the log, not the body
	codeNotImplemented = "not_implemented" // 501: transport cannot satisfy the request (no SSE)
	codeShuttingDown   = "shutting_down"   // 503: server is draining; retry elsewhere
)

// errorCodeHeader carries the error code out of band of the body.
const errorCodeHeader = "X-Dcs-Error-Code"

// apiError is one refusal, ready to write. The serve layer's internal
// currency: handlers and job runners build these, writeAPIError sends
// them, and a failed async job keeps all three.
type apiError struct {
	status int
	code   string
	msg    string
}

// writeError writes one error response: the JSON envelope by default,
// the bare message for clients that name text/plain in Accept but not
// application/json (curl's default */* gets the envelope). The request's
// trace id (when the request was traced) rides both the envelope and the
// server's own log line, tying the two together.
func writeError(w http.ResponseWriter, r *http.Request, status int, code, msg string) {
	w.Header().Set(errorCodeHeader, code)
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.Header().Set("X-Content-Type-Options", "nosniff")
		w.WriteHeader(status)
		fmt.Fprintln(w, msg)
		return
	}
	body := struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
			TraceID string `json:"trace_id,omitempty"`
		} `json:"error"`
	}{}
	body.Error.Code = code
	body.Error.Message = msg
	body.Error.TraceID = obs.From(r.Context()).ID()
	writeJSON(w, status, body)
}

// writeAPIError sends one apiError.
func writeAPIError(w http.ResponseWriter, r *http.Request, e *apiError) {
	writeError(w, r, e.status, e.code, e.msg)
}

// internal logs one server-side failure and returns its 500. The detail
// never reaches the client (store and sweep internals once leaked
// verbatim): the error goes to the server log with the trace id, the
// message is generic but names the trace so an operator can find the
// rest. A failed async job stores the message, so the sanitizing happens
// here, not where it is written. what labels the log line.
func (s *Server) internal(ctx context.Context, what string, err error, logArgs ...any) *apiError {
	id := obs.From(ctx).ID()
	args := append([]any{"err", err}, logArgs...)
	msg := "internal error"
	if id != "" {
		args = append(args, "trace", id)
		msg += " (trace " + id + ")"
	}
	s.log.Error(what, args...)
	return &apiError{http.StatusInternalServerError, codeInternal, msg}
}
