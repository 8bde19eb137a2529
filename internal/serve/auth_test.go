package serve_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/tenant"
)

// writeKeysFile writes a tenant keys file and returns its path.
func writeKeysFile(t *testing.T, cfgs ...tenant.KeyConfig) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keys.json")
	data, err := json.Marshal(struct {
		Keys []tenant.KeyConfig `json:"keys"`
	}{cfgs})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// openRegistry loads a registry from the given key configs.
func openRegistry(t *testing.T, cfgs ...tenant.KeyConfig) *tenant.Registry {
	t.Helper()
	reg, err := tenant.Open(writeKeysFile(t, cfgs...), quietLog)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// doJSON issues one request with arbitrary method, JSON body and headers.
func doJSON(t *testing.T, ts *httptest.Server, method, path string, body any, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out := readAll(t, resp)
	return resp, out
}

// errEnvelope mirrors the v1 error body.
type errEnvelope struct {
	Error struct {
		Code    string `json:"code"`
		Message string `json:"message"`
		TraceID string `json:"trace_id"`
	} `json:"error"`
}

// errCode decodes the envelope and returns its code, cross-checking the
// X-Dcs-Error-Code header agrees.
func errCode(t *testing.T, resp *http.Response, body []byte) string {
	t.Helper()
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("unreadable error envelope %q: %v", body, err)
	}
	if h := resp.Header.Get("X-Dcs-Error-Code"); h != env.Error.Code {
		t.Fatalf("X-Dcs-Error-Code = %q, envelope code = %q", h, env.Error.Code)
	}
	return env.Error.Code
}

func bearer(key string) map[string]string {
	return map[string]string{"Authorization": "Bearer " + key}
}

// TestAuthRequired: with a keys file loaded, unkeyed and wrong-keyed
// requests answer 401 with the unauthorized envelope, both key-carrying
// headers work, and the probe endpoints stay open so load balancers and
// Prometheus need no credentials.
func TestAuthRequired(t *testing.T) {
	reg := openRegistry(t, tenant.KeyConfig{ID: "alice", Secret: "alice-key"})
	srv := serve.New(serve.Config{Options: testOptions(), Tenants: reg, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		hdr  map[string]string
		want int
	}{
		{"no key", nil, http.StatusUnauthorized},
		{"wrong key", bearer("nope"), http.StatusUnauthorized},
		{"revoked-format scheme", map[string]string{"Authorization": "Basic alice-key"}, http.StatusUnauthorized},
		{"bearer", bearer("alice-key"), http.StatusOK},
		{"api key header", map[string]string{"X-Dcs-Api-Key": "alice-key"}, http.StatusOK},
	} {
		resp, body := get(t, ts, "/v1/workloads", tc.hdr)
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: GET /v1/workloads = %d, want %d: %s", tc.name, resp.StatusCode, tc.want, body)
		}
		if tc.want == http.StatusUnauthorized {
			if code := errCode(t, resp, body); code != "unauthorized" {
				t.Fatalf("%s: error code = %q, want unauthorized", tc.name, code)
			}
		}
	}

	// The envelope names the request's trace.
	resp, body := get(t, ts, "/v1/workloads", nil)
	var env errEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Error.TraceID == "" || env.Error.TraceID != resp.Header.Get("X-Dcs-Trace") {
		t.Fatalf("envelope trace_id %q does not match X-Dcs-Trace %q",
			env.Error.TraceID, resp.Header.Get("X-Dcs-Trace"))
	}

	// A text/plain client gets the bare message, not JSON.
	resp, body = get(t, ts, "/v1/workloads", map[string]string{"Accept": "text/plain"})
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text client got Content-Type %q", ct)
	}
	if strings.Contains(string(body), `"error"`) {
		t.Fatalf("text client got JSON: %s", body)
	}
	if resp.Header.Get("X-Dcs-Error-Code") != "unauthorized" {
		t.Fatal("text fallback lost the code header")
	}

	// Probes bypass auth entirely.
	for _, path := range []string{"/healthz", "/metrics"} {
		if resp, body := get(t, ts, path, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("unkeyed probe %s = %d: %s", path, resp.StatusCode, body)
		}
	}

	// /healthz reports the auth state and per-tenant usage.
	_, hbody := get(t, ts, "/healthz", nil)
	var health struct {
		Tenants struct {
			Auth      bool              `json:"auth"`
			PerTenant []tenant.Snapshot `json:"per_tenant"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatal(err)
	}
	if !health.Tenants.Auth || len(health.Tenants.PerTenant) != 1 || health.Tenants.PerTenant[0].ID != "alice" {
		t.Fatalf("healthz tenants = %s", hbody)
	}
	if health.Tenants.PerTenant[0].Usage.Requests < 2 {
		t.Fatalf("alice's admitted requests = %d, want >= 2", health.Tenants.PerTenant[0].Usage.Requests)
	}
}

// TestAuthOffUnchanged: without a keys file nothing requires a key and
// /healthz carries no tenant report — the pre-tenancy surface — while a
// forwarded X-Dcs-Tenant header is still attributed for accounting.
func TestAuthOffUnchanged(t *testing.T) {
	srv := serve.New(serve.Config{Options: testOptions(), Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, body := get(t, ts, "/v1/workloads", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous GET = %d: %s", resp.StatusCode, body)
	}
	_, hbody := get(t, ts, "/healthz", nil)
	if strings.Contains(string(hbody), `"tenants"`) {
		t.Fatalf("auth-off healthz grew a tenants report: %s", hbody)
	}
	_, mbody := get(t, ts, "/metrics", nil)
	if strings.Contains(string(mbody), "dcserved_tenant_") {
		t.Fatal("auth-off metrics grew tenant families")
	}

	// Attribution without enforcement: the dispatch hop's header works
	// even with auth off, so a keyed front-end over unkeyed workers still
	// yields cluster-wide per-tenant accounting.
	if resp, _ := get(t, ts, "/v1/workloads", map[string]string{tenant.Header: "carol"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("attributed GET = %d", resp.StatusCode)
	}
	_, mbody = get(t, ts, "/metrics", nil)
	if !strings.Contains(string(mbody), `dcserved_tenant_requests_total{tenant="carol"} 1`) {
		t.Fatalf("metrics lack carol's attribution:\n%s", mbody)
	}
}

// TestTenantRateLimit: a tenant with a 1-request burst and a crawling
// refill gets exactly one request through; the second answers 429
// quota_exceeded with a Retry-After hint (a bucket refills on a known
// schedule), and the denial is visible per-tenant in /metrics.
func TestTenantRateLimit(t *testing.T) {
	reg := openRegistry(t, tenant.KeyConfig{
		ID: "bob", Secret: "bob-key",
		Limits: tenant.Limits{RatePerSec: 0.01, Burst: 1},
	})
	srv := serve.New(serve.Config{Options: testOptions(), Tenants: reg, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if resp, body := get(t, ts, "/v1/workloads", bearer("bob-key")); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request = %d: %s", resp.StatusCode, body)
	}
	resp, body := get(t, ts, "/v1/workloads", bearer("bob-key"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", resp.StatusCode)
	}
	if code := errCode(t, resp, body); code != "quota_exceeded" {
		t.Fatalf("rate-limit code = %q, want quota_exceeded", code)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want >= 1s", resp.Header.Get("Retry-After"))
	}
	_, mbody := get(t, ts, "/metrics", nil)
	if !strings.Contains(string(mbody), `dcserved_tenant_rate_limited_total{tenant="bob"} 1`) {
		t.Fatalf("metrics lack bob's rate-limit denial:\n%s", mbody)
	}
}

// Test429Disambiguation is the contract the two 429 codes exist for: a
// tenant hitting its own job quota reads quota_exceeded while a tenant
// refused by a saturated worker's admission control reads overloaded —
// same status, different reaction (give up vs retry elsewhere), finally
// distinguishable without parsing prose.
func Test429Disambiguation(t *testing.T) {
	reg := openRegistry(t,
		tenant.KeyConfig{ID: "alice", Secret: "alice-key"},
		tenant.KeyConfig{ID: "broke", Secret: "broke-key",
			Limits: tenant.Limits{MaxInstructions: 1}},
	)
	opts := testOptions()
	gate := make(chan struct{})
	backend := &countingBackend{inner: newMemoryBackend(), gate: gate}
	srv := serve.New(serve.Config{Options: opts, Backend: backend, MaxInflight: 1, Tenants: reg, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(gate)
	fp := opts.CoreConfig().Fingerprint()

	// Alice's gated job saturates the single admission slot.
	slow, err := json.Marshal(jobRequest(t, store.KindCounters, testCounterKey(t, "Sort", opts.Warmup, opts.Instrs, fp), opts.Warmup))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(slow))
		req.Header.Set("Authorization", "Bearer alice-key")
		resp, err := ts.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.JobStats().InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("gated job never occupied the slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Alice again, different key: the worker is full — overloaded.
	probe := jobRequest(t, store.KindCounters, testCounterKey(t, "Grep", opts.Warmup, opts.Instrs, fp), opts.Warmup)
	resp, body := doJSON(t, ts, http.MethodPost, "/v1/jobs", probe, bearer("alice-key"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated submit = %d, want 429: %s", resp.StatusCode, body)
	}
	if code := errCode(t, resp, body); code != "overloaded" {
		t.Fatalf("saturated-worker code = %q, want overloaded", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overloaded 429 lost its Retry-After hint")
	}

	// Broke's job quota is zero: refused for its budget, not the
	// worker's capacity — and before any admission decision.
	resp, body = doJSON(t, ts, http.MethodPost, "/v1/jobs", probe, bearer("broke-key"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429: %s", resp.StatusCode, body)
	}
	if code := errCode(t, resp, body); code != "quota_exceeded" {
		t.Fatalf("over-quota code = %q, want quota_exceeded", code)
	}
}

// TestCrossTenantJobIsolation: async jobs are scoped to the tenant that
// submitted them. Another tenant polling, fetching or cancelling the job
// gets the same 404 an unknown id gets — existence itself is private —
// and the job list only shows the caller's own jobs, whatever tenant the
// caller's X-Dcs-Tenant header names.
func TestCrossTenantJobIsolation(t *testing.T) {
	reg := openRegistry(t,
		tenant.KeyConfig{ID: "alice", Secret: "alice-key"},
		tenant.KeyConfig{ID: "bob", Secret: "bob-key"},
	)
	opts := testOptions()
	gate := make(chan struct{})
	backend := &countingBackend{inner: newMemoryBackend(), gate: gate}
	srv := serve.New(serve.Config{Options: opts, Backend: backend, Tenants: reg, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer close(gate)
	key := testCounterKey(t, "Sort", opts.Warmup, opts.Instrs, opts.CoreConfig().Fingerprint())

	req := jobRequest(t, store.KindCounters, key, opts.Warmup)
	req.Async = true
	resp, body := doJSON(t, ts, http.MethodPost, "/v1/jobs", req, bearer("alice-key"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d: %s", resp.StatusCode, body)
	}
	var snap struct {
		ID     string `json:"id"`
		Tenant string `json:"tenant"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Tenant != "alice" {
		t.Fatalf("job tenant = %q, want alice", snap.Tenant)
	}

	// Bob sees nothing: not by GET, not by DELETE, not in the list — nor
	// when his request names alice in X-Dcs-Tenant, which a keyed server
	// does not read: it grants nothing and charges nothing.
	for _, bob := range []map[string]string{
		bearer("bob-key"),
		{"Authorization": "Bearer bob-key", tenant.Header: "alice"},
	} {
		for _, tc := range []struct{ method, path string }{
			{http.MethodGet, "/v1/jobs/" + snap.ID},
			{http.MethodGet, "/v1/jobs/" + snap.ID + "/result"},
			{http.MethodDelete, "/v1/jobs/" + snap.ID},
		} {
			resp, body := doJSON(t, ts, tc.method, tc.path, nil, bob)
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("bob %v %s %s = %d, want 404: %s", bob, tc.method, tc.path, resp.StatusCode, body)
			}
			if code := errCode(t, resp, body); code != "not_found" {
				t.Fatalf("bob's code = %q, want not_found (indistinguishable from unknown)", code)
			}
		}
		if _, lbody := get(t, ts, "/v1/jobs", bob); strings.Contains(string(lbody), snap.ID) {
			t.Fatalf("bob's job list (%v) leaks alice's job: %s", bob, lbody)
		}
	}

	// Alice keeps full access.
	if resp, _ := get(t, ts, "/v1/jobs/"+snap.ID, bearer("alice-key")); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice GET own job = %d", resp.StatusCode)
	}
	if _, lbody := get(t, ts, "/v1/jobs", bearer("alice-key")); !strings.Contains(string(lbody), snap.ID) {
		t.Fatalf("alice's job list lacks her job: %s", lbody)
	}
	if resp, _ := doJSON(t, ts, http.MethodDelete, "/v1/jobs/"+snap.ID, nil, bearer("alice-key")); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice DELETE own job = %d", resp.StatusCode)
	}
}

// TestJobQuotaExhaustion: completed jobs charge the tenant's cumulative
// job quota — a budget of one counters job lets the first through and
// refuses the second with quota_exceeded. Both submission modes book the
// same way (one job, the full instruction charge, one job-latency
// sample), and naming an unlimited tenant in X-Dcs-Tenant neither lifts
// the budget nor escapes the charge; the named tenant is not charged.
func TestJobQuotaExhaustion(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a single-workload sweep")
	}
	for _, tc := range []struct {
		name   string
		async  bool
		origin string // X-Dcs-Tenant on both submissions ("" = none)
	}{
		{"blocking", false, ""},
		{"async", true, ""},
		{"blocking naming an unlimited tenant", false, "free"},
		{"async naming an unlimited tenant", true, "free"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := openRegistry(t,
				tenant.KeyConfig{
					ID: "capped", Secret: "capped-key",
					Limits: tenant.Limits{MaxJobs: map[string]int64{store.KindCounters: 1}},
				},
				tenant.KeyConfig{ID: "free", Secret: "free-key"},
			)
			opts := testOptions()
			srv := serve.New(serve.Config{Options: opts, Tenants: reg, Logger: quietLog})
			defer srv.Close()
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			fp := opts.CoreConfig().Fingerprint()
			hdr := bearer("capped-key")
			if tc.origin != "" {
				hdr[tenant.Header] = tc.origin
			}
			submit := func(workload string) (*http.Response, []byte) {
				req := jobRequest(t, store.KindCounters, testCounterKey(t, workload, opts.Warmup, opts.Instrs, fp), opts.Warmup)
				req.Async = tc.async
				return doJSON(t, ts, http.MethodPost, "/v1/jobs", req, hdr)
			}

			resp, body := submit("Sort")
			if tc.async {
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("first job = %d: %s", resp.StatusCode, body)
				}
				var snap struct {
					ID string `json:"id"`
				}
				if err := json.Unmarshal(body, &snap); err != nil {
					t.Fatal(err)
				}
				deadline := time.Now().Add(30 * time.Second)
				for {
					resp, jbody := get(t, ts, "/v1/jobs/"+snap.ID, hdr)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("poll = %d: %s", resp.StatusCode, jbody)
					}
					if strings.Contains(string(jbody), `"state": "done"`) || strings.Contains(string(jbody), `"state":"done"`) {
						break
					}
					if time.Now().After(deadline) {
						t.Fatalf("job never finished: %s", jbody)
					}
					time.Sleep(2 * time.Millisecond)
				}
			} else if resp.StatusCode != http.StatusOK {
				t.Fatalf("first job = %d: %s", resp.StatusCode, body)
			}

			// The completed job spent the whole budget.
			resp, body = submit("Grep")
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("over-quota job = %d, want 429: %s", resp.StatusCode, body)
			}
			if code := errCode(t, resp, body); code != "quota_exceeded" {
				t.Fatalf("code = %q, want quota_exceeded", code)
			}
			_, mbody := get(t, ts, "/metrics", nil)
			want := []string{
				`dcserved_tenant_jobs_total{tenant="capped",kind="counters"} 1`,
				`dcserved_tenant_instructions_total{tenant="capped"} ` + strconv.FormatInt(opts.Warmup+opts.Instrs, 10),
				`dcserved_job_duration_seconds_count{kind="counters"} 1`,
			}
			for _, w := range want {
				if !strings.Contains(string(mbody), w+"\n") {
					t.Fatalf("metrics lack %q:\n%s", w, mbody)
				}
			}
			if tc.origin != "" {
				if jobs := `dcserved_tenant_jobs_total{tenant="` + tc.origin + `"`; strings.Contains(string(mbody), jobs) {
					t.Fatalf("named tenant %q was charged a job:\n%s", tc.origin, mbody)
				}
				for _, w := range []string{
					`dcserved_tenant_requests_total{tenant="` + tc.origin + `"} 0`,
					`dcserved_tenant_instructions_total{tenant="` + tc.origin + `"} 0`,
				} {
					if !strings.Contains(string(mbody), w+"\n") {
						t.Fatalf("named tenant %q was charged: metrics lack %q:\n%s", tc.origin, w, mbody)
					}
				}
			}
		})
	}
}

// TestNamedTenantIsNotCharged: with a keys file loaded, a request is
// charged to the key that authenticated it and to no one else. A keyed
// caller naming another tenant in X-Dcs-Tenant spends none of that
// tenant's request or job budget, and naming an id nobody holds creates
// no tenant.
func TestNamedTenantIsNotCharged(t *testing.T) {
	reg := openRegistry(t,
		tenant.KeyConfig{ID: "alice", Secret: "alice-key"},
		tenant.KeyConfig{ID: "bob", Secret: "bob-key", Limits: tenant.Limits{
			MaxRequests: 3,
			MaxJobs:     map[string]int64{store.KindCounters: 1},
		}},
	)
	opts := testOptions()
	srv := serve.New(serve.Config{Options: opts, Tenants: reg, Logger: quietLog})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	aliceAsBob := map[string]string{"Authorization": "Bearer alice-key", tenant.Header: "bob"}

	// Three of alice's requests name bob; bob's own first request still
	// finds his whole budget.
	for i := 0; i < 3; i++ {
		if resp, body := get(t, ts, "/v1/workloads", aliceAsBob); resp.StatusCode != http.StatusOK {
			t.Fatalf("alice's request %d = %d: %s", i, resp.StatusCode, body)
		}
	}
	if resp, body := get(t, ts, "/v1/workloads", bearer("bob-key")); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's first request = %d, want 200: %s", resp.StatusCode, body)
	}

	// A keyed request naming an unknown id adds no tenant.
	mallory := map[string]string{"Authorization": "Bearer alice-key", tenant.Header: "mallory"}
	if resp, body := get(t, ts, "/v1/workloads", mallory); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice naming mallory = %d: %s", resp.StatusCode, body)
	}
	_, hbody := get(t, ts, "/healthz", nil)
	var health struct {
		Tenants struct {
			PerTenant []tenant.Snapshot `json:"per_tenant"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(hbody, &health); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, s := range health.Tenants.PerTenant {
		ids = append(ids, s.ID)
	}
	if strings.Join(ids, ",") != "alice,bob" {
		t.Fatalf("healthz tenants = %v, want [alice bob]", ids)
	}

	if testing.Short() {
		t.Skip("the job case runs a single-workload sweep")
	}
	// Alice's job names bob; bob's own job still fits his job quota.
	fp := opts.CoreConfig().Fingerprint()
	req := jobRequest(t, store.KindCounters, testCounterKey(t, "Sort", opts.Warmup, opts.Instrs, fp), opts.Warmup)
	if resp, body := doJSON(t, ts, http.MethodPost, "/v1/jobs", req, aliceAsBob); resp.StatusCode != http.StatusOK {
		t.Fatalf("alice's job = %d: %s", resp.StatusCode, body)
	}
	req = jobRequest(t, store.KindCounters, testCounterKey(t, "Grep", opts.Warmup, opts.Instrs, fp), opts.Warmup)
	if resp, body := doJSON(t, ts, http.MethodPost, "/v1/jobs", req, bearer("bob-key")); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob's first job = %d, want 200: %s", resp.StatusCode, body)
	}
}
