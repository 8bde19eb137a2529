package serve_test

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"

	"dcbench/internal/serve"
)

// logLine is one decoded slog JSON record.
type logLine struct {
	Level  string `json:"level"`
	Msg    string `json:"msg"`
	Path   string `json:"path"`
	Status int    `json:"status"`
	Trace  string `json:"trace"`
}

// TestRequestLogPolicy: the request line is an Info record only for a
// refusal or a failure, carrying its status and the trace id the response
// named; a 200, a 304 and a probe log at Debug.
func TestRequestLogPolicy(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv := serve.New(serve.Config{Options: testOptions(), Logger: log})
	defer srv.Close()
	h := srv.Handler()

	// do makes one request and returns its response and the request
	// lines it logged at each level.
	do := func(path string, hdr map[string]string) (*httptest.ResponseRecorder, map[string][]logLine) {
		t.Helper()
		buf.Reset()
		req := httptest.NewRequest("GET", path, nil)
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		lines := map[string][]logLine{}
		dec := json.NewDecoder(&buf)
		for dec.More() {
			var l logLine
			if err := dec.Decode(&l); err != nil {
				t.Fatalf("%s: unreadable log record: %v", path, err)
			}
			if l.Msg == "request" {
				lines[l.Level] = append(lines[l.Level], l)
			}
		}
		return rec, lines
	}

	ok, lines := do("/v1/workloads", nil)
	if ok.Code != http.StatusOK || len(lines["INFO"]) != 0 || len(lines["DEBUG"]) != 1 {
		t.Fatalf("200: status %d, request lines %+v; want one at DEBUG only", ok.Code, lines)
	}
	rec, lines := do("/v1/workloads", map[string]string{"If-None-Match": ok.Header().Get("Etag")})
	if rec.Code != http.StatusNotModified || len(lines["INFO"]) != 0 || len(lines["DEBUG"]) != 1 {
		t.Fatalf("304: status %d, request lines %+v; want one at DEBUG only", rec.Code, lines)
	}
	rec, lines = do("/metrics", nil)
	if rec.Code != http.StatusOK || len(lines["INFO"]) != 0 || len(lines["DEBUG"]) != 1 || lines["DEBUG"][0].Trace != "" {
		t.Fatalf("/metrics: status %d, request lines %+v; want one untraced at DEBUG only", rec.Code, lines)
	}

	refusal := func(path string, want int) {
		t.Helper()
		rec, lines := do(path, nil)
		info := lines["INFO"]
		if rec.Code != want || len(info) != 1 || len(lines["DEBUG"]) != 0 {
			t.Fatalf("%s: status %d, request lines %+v; want %d with one line at INFO", path, rec.Code, lines, want)
		}
		if l := info[0]; l.Status != want || l.Path != path || l.Trace == "" || l.Trace != rec.Header().Get("X-Dcs-Trace") {
			t.Fatalf("%s: line %+v, want status %d and the response's trace %q", path, l, want, rec.Header().Get("X-Dcs-Trace"))
		}
	}
	refusal("/v1/figures/13", http.StatusBadRequest)
	refusal("/v1/workloads/NoSuch/counters", http.StatusNotFound)
	srv.Close()
	refusal("/v1/figures/12", http.StatusServiceUnavailable)
}
