package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// TracesHandler serves a Recorder's ring as JSON at GET /debug/traces:
// the most recent finished traces, newest first, filtered to those at
// least ?min_ms= milliseconds long and capped at ?limit= entries
// (default 64). The shape is {"total": N, "traces": [TraceData...]}.
func TracesHandler(rec *Recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var min time.Duration
		if v := q.Get("min_ms"); v != "" {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || f < 0 {
				http.Error(w, "min_ms must be a non-negative number of milliseconds", http.StatusBadRequest)
				return
			}
			min = time.Duration(f * float64(time.Millisecond))
		}
		limit := 64
		if v := q.Get("limit"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 {
				http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
				return
			}
			limit = n
		}
		traces := rec.Traces(min)
		if len(traces) > limit {
			traces = traces[:limit]
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(struct {
			Total  int64       `json:"total"`
			Traces []TraceData `json:"traces"`
		}{rec.recorded(), traces})
	})
}

// DebugMux mounts the full debug plane on one mux: the trace ring at
// /debug/traces and net/http/pprof at /debug/pprof/ — the handler the
// -debug-addr flag serves on its own listener, kept off the service
// port's handler chain so profiling a drowning server does not compete
// with the traffic drowning it.
func DebugMux(rec *Recorder) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("GET /debug/traces", TracesHandler(rec))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
