package serve_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dcbench/internal/dispatch"
	"dcbench/internal/obs"
	"dcbench/internal/serve"
	"dcbench/internal/store"
)

var update = flag.Bool("update", false, "rewrite the golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/serve -run %s -update` to cut golden files)", err, t.Name())
	}
	if string(got) != string(want) {
		t.Errorf("%s drifted from its golden file; this is the observability surface operators scrape — diff deliberately or re-cut with -update\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// storeBackedServer builds a server over a fresh store, so the store
// observability block is populated.
func storeBackedServer(t *testing.T) (*serve.Server, *httptest.Server) {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	srv := serve.New(serve.Config{Options: testOptions(), Store: st, Logger: quietLog})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// dispatchBackedServer builds a front-end over a store plus a (never
// contacted) worker set, so the dispatch observability block is populated.
func dispatchBackedServer(t *testing.T) *httptest.Server {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	remote, err := dispatch.New(dispatch.Options{Workers: []string{"w1:8337", "w2:8337"}},
		testOptions().Warmup, st.Backend(quietLog), quietLog)
	if err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Options: testOptions(), Store: st, Backend: remote, Cluster: remote, Logger: quietLog})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// jsonSchema flattens a decoded JSON value into sorted "path: type" lines —
// the shape of the document with the volatile values erased.
func jsonSchema(v any) []string {
	var out []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch x := v.(type) {
		case map[string]any:
			if len(x) == 0 {
				out = append(out, path+": object")
				return
			}
			for k, child := range x {
				walk(path+"."+k, child)
			}
		case []any:
			if len(x) == 0 {
				out = append(out, path+": array")
				return
			}
			walk(path+"[]", x[0])
		case string:
			out = append(out, path+": string")
		case float64:
			out = append(out, path+": number")
		case bool:
			out = append(out, path+": bool")
		case nil:
			out = append(out, path+": null")
		default:
			out = append(out, fmt.Sprintf("%s: %T", path, v))
		}
	}
	walk("", v)
	sort.Strings(out)
	return out
}

// TestHealthzSchemaGolden pins the /healthz JSON shape — every field path
// and its type, including the store counter block — so the surface a
// monitoring stack depends on cannot drift silently.
func TestHealthzSchemaGolden(t *testing.T) {
	_, ts := storeBackedServer(t)
	resp, body := get(t, ts, "/healthz", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, body)
	}
	checkGolden(t, "healthz_schema.golden", []byte(strings.Join(jsonSchema(doc), "\n")+"\n"))
}

// TestHealthzDispatchSchemaGolden pins the /healthz shape of a front-end
// with a dispatch backend: the store block grows a dispatch sub-block with
// per-worker state. Plain servers must not regress either (the golden
// above has no dispatch paths).
func TestHealthzDispatchSchemaGolden(t *testing.T) {
	ts := dispatchBackedServer(t)
	resp, body := get(t, ts, "/healthz", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var doc any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("healthz is not JSON: %v\n%s", err, body)
	}
	checkGolden(t, "healthz_dispatch_schema.golden", []byte(strings.Join(jsonSchema(doc), "\n")+"\n"))
}

// metricValue matches the sample line of a metric family, labeled
// (kind="...") or not.
var metricValue = regexp.MustCompile(`^([a-z_]+(?:\{[^}]*\})?) [0-9][0-9.e+-]*$`)

// buildInfoLine matches the dcserved_build_info sample, whose label
// values (Go version, VCS revision) legitimately differ per build and
// must be normalised away along with the value.
var buildInfoLine = regexp.MustCompile(`^dcserved_build_info\{[^}]*\} 1$`)

// normalizeMetrics erases the volatile parts of a /metrics body — sample
// values and the build_info labels — leaving the family names, label
// shapes and HELP/TYPE lines the goldens pin.
func normalizeMetrics(body []byte) []byte {
	var norm []string
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		if buildInfoLine.MatchString(line) {
			line = `dcserved_build_info{goversion="X",revision="X"} X`
		} else if m := metricValue.FindStringSubmatch(line); m != nil {
			line = m[1] + " X"
		}
		norm = append(norm, line)
	}
	return []byte(strings.Join(norm, "\n") + "\n")
}

// TestMetricsGolden pins the /metrics exposition format with sample values
// normalised: family names, HELP/TYPE lines and their order are the
// contract a Prometheus scrape config is written against.
func TestMetricsGolden(t *testing.T) {
	_, ts := storeBackedServer(t)
	resp, body := get(t, ts, "/metrics", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	checkGolden(t, "metrics.golden", normalizeMetrics(body))
}

// TestMetricsDispatchGolden pins the extra metric families a front-end
// with a dispatch backend exposes, with the same value normalisation.
func TestMetricsDispatchGolden(t *testing.T) {
	ts := dispatchBackedServer(t)
	resp, body := get(t, ts, "/metrics", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	checkGolden(t, "metrics_dispatch.golden", normalizeMetrics(body))
}

// TestMetricsHistogramGolden pins the latency-histogram exposition once
// traffic has populated a label: the full bucket ladder (every le bound
// plus +Inf), _sum and _count under an endpoint label, with values
// normalised — the shape a Prometheus histogram_quantile query is
// written against.
func TestMetricsHistogramGolden(t *testing.T) {
	_, ts := storeBackedServer(t)
	get(t, ts, "/v1/workloads", nil)
	get(t, ts, "/v1/workloads", nil)
	_, body := get(t, ts, "/metrics", nil)
	var hist []string
	for _, line := range strings.Split(string(normalizeMetrics(body)), "\n") {
		if strings.Contains(line, "dcserved_request_duration_seconds") ||
			strings.Contains(line, "dcserved_job_duration_seconds") {
			hist = append(hist, line)
		}
	}
	checkGolden(t, "metrics_histogram.golden", []byte(strings.Join(hist, "\n")+"\n"))
}

// TestMetricsCounts spot-checks live semantics behind the golden shape:
// request traffic and store writes must actually move the gauges.
func TestMetricsCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a single-workload sweep")
	}
	_, ts := storeBackedServer(t)
	get(t, ts, "/v1/workloads/Sort/counters", nil)
	_, body := get(t, ts, "/metrics", nil)
	for _, want := range []string{
		"dcserved_store_writes_total 1",
		"dcserved_store_records 1",
		"dcserved_requests_total 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics after a stored sweep lack %q:\n%s", want, body)
		}
	}
}

// findTrace returns the recorder's trace with the given ID, if any.
func findTrace(rec *obs.Recorder, id string) (obs.TraceData, bool) {
	for _, td := range rec.Traces(0) {
		if td.ID == id {
			return td, true
		}
	}
	return obs.TraceData{}, false
}

// spanNames returns the distinct span names of a trace.
func spanNames(td obs.TraceData) map[string]bool {
	names := map[string]bool{}
	for _, sp := range td.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestTracePropagationAcrossDispatch is the tentpole's acceptance test: a
// cold counters request dispatched front-end → worker produces one trace
// visible in BOTH processes' /debug/traces rings under the SAME ID (the
// client-chosen one, echoed back in the response header), and between them
// the spans cover at least five distinct phases of the job's life.
func TestTracePropagationAcrossDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a dispatched sweep")
	}
	wst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { wst.Close() })
	worker := serve.New(serve.Config{Options: testOptions(), Store: wst, Logger: quietLog})
	t.Cleanup(worker.Close)
	wts := httptest.NewServer(worker.Handler())
	t.Cleanup(wts.Close)

	fst, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fst.Close() })
	remote, err := dispatch.New(dispatch.Options{Workers: []string{strings.TrimPrefix(wts.URL, "http://")}},
		testOptions().Warmup, fst.Backend(quietLog), quietLog)
	if err != nil {
		t.Fatal(err)
	}
	front := serve.New(serve.Config{Options: testOptions(), Store: fst, Backend: remote, Cluster: remote, Logger: quietLog})
	t.Cleanup(front.Close)
	fts := httptest.NewServer(front.Handler())
	t.Cleanup(fts.Close)

	const id = "e2e0123456789abc"
	resp, body := get(t, fts, "/v1/workloads/Sort/counters", map[string]string{obs.TraceHeader: id})
	if resp.StatusCode != 200 {
		t.Fatalf("counters status = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != id {
		t.Errorf("response %s = %q, want the inbound ID %q echoed", obs.TraceHeader, got, id)
	}

	frontTd, ok := findTrace(front.Recorder(), id)
	if !ok {
		t.Fatalf("front-end ring has no trace %s", id)
	}
	workerTd, ok := findTrace(worker.Recorder(), id)
	if !ok {
		t.Fatalf("worker ring has no trace %s — the dispatch hop dropped the ID", id)
	}

	frontSpans, workerSpans := spanNames(frontTd), spanNames(workerTd)
	for _, want := range []string{"store.read", "dispatch", "store.write"} {
		if !frontSpans[want] {
			t.Errorf("front-end trace lacks %q span; has %v", want, frontSpans)
		}
	}
	for _, want := range []string{"admission", "simulate", "store.write"} {
		if !workerSpans[want] {
			t.Errorf("worker trace lacks %q span; has %v", want, workerSpans)
		}
	}
	all := map[string]bool{}
	for n := range frontSpans {
		all[n] = true
	}
	for n := range workerSpans {
		all[n] = true
	}
	if len(all) < 5 {
		t.Errorf("cross-process trace covers %d distinct phases (%v), want >= 5", len(all), all)
	}

	// The dispatch attempt span names the worker it went to and how it ended.
	for _, sp := range frontTd.Spans {
		if sp.Name == "dispatch" {
			if sp.Attrs["outcome"] != "ok" || sp.Attrs["worker"] == "" {
				t.Errorf("dispatch span attrs = %v, want outcome=ok and a worker", sp.Attrs)
			}
		}
	}

	// A warm repeat stays local: traced, but with no dispatch span.
	const warmID = "e2ewarm123456789"
	get(t, fts, "/v1/workloads/Sort/counters", map[string]string{obs.TraceHeader: warmID})
	warmTd, ok := findTrace(front.Recorder(), warmID)
	if !ok {
		t.Fatalf("front-end ring has no trace %s for the warm read", warmID)
	}
	if spanNames(warmTd)["dispatch"] {
		t.Errorf("warm read dispatched; spans = %v", spanNames(warmTd))
	}
}
