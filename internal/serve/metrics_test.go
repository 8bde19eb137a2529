package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcbench/internal/dispatch"
	"dcbench/internal/replica"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/tenant"
)

// TestEveryHealthzNumberHasAFamily enforces the declaration rule: every
// number /healthz reports declares the /metrics family it is exported
// under, or says metric:"-" to stay /healthz-only. Families are unique,
// dcserved_-prefixed and documented, counters end in _total, and a tagged
// map names the label its keys become.
func TestEveryHealthzNumberHasAFamily(t *testing.T) {
	declared := map[string]string{} // family → declaring field
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice:
			walk(typ.Elem(), path)
		case reflect.Struct:
			for i := range typ.NumField() {
				f := typ.Field(i)
				field := path + "." + f.Name
				leaf := f.Type
				if leaf.Kind() == reflect.Map {
					leaf = leaf.Elem()
				}
				isNumber := leaf.Kind() >= reflect.Int && leaf.Kind() <= reflect.Float64
				tag := f.Tag.Get("metric")
				if tag == "-" {
					continue
				}
				if tag == "" {
					if isNumber {
						t.Errorf("%s is a number without a metric tag: declare its family, or metric:\"-\" to keep it /healthz-only", field)
					}
					walk(f.Type, field)
					continue
				}
				family, kind, _ := strings.Cut(tag, ",")
				switch leaf.Kind() {
				case reflect.Int, reflect.Int64, reflect.Float64:
				default:
					t.Errorf("%s declares %s but is a %s, not an int, int64 or float64", field, family, f.Type)
				}
				if prev, dup := declared[family]; dup {
					t.Errorf("%s and %s both declare %s", prev, field, family)
				}
				declared[family] = field
				if !strings.HasPrefix(family, "dcserved_") {
					t.Errorf("%s: family %s lacks the dcserved_ prefix", field, family)
				}
				if kind != "counter" && kind != "gauge" {
					t.Errorf("%s: family %s has type %q, want counter or gauge", field, family, kind)
				}
				if (kind == "counter") != strings.HasSuffix(family, "_total") {
					t.Errorf("%s: %s %s — counters, and only counters, end in _total", field, kind, family)
				}
				if f.Tag.Get("help") == "" {
					t.Errorf("%s: family %s has no help text", field, family)
				}
				if f.Type.Kind() == reflect.Map && f.Tag.Get("label") == "" {
					t.Errorf("%s: map family %s names no label for its keys", field, family)
				}
			}
		}
	}
	walk(reflect.TypeFor[serve.HealthForTest](), "health")
	if len(declared) == 0 {
		t.Fatal("no metric declarations found")
	}
}

// TestMetricsAgreeWithHealthz: after a replica push and an attributed
// counters job, every declared /healthz number equals its /metrics sample,
// and every /metrics sample but build_info and the histograms is declared
// in /healthz. The request counter (the scrape counts itself) and uptime
// only have to be present. It runs on a store-backed node without a
// replicator — which adopts pushed records all the same — and on the full
// configuration: a dispatch front-end over a worker, with a store, a
// replicator and a known tenant. Both expositions must be well formed.
func TestMetricsAgreeWithHealthz(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a single-workload job per server")
	}
	opts := testOptions()
	_, _, record := storeWithOneRecord(t)
	key := testCounterKey(t, "Grep", opts.Warmup, opts.Instrs, opts.CoreConfig().Fingerprint())
	openStore := func(t *testing.T) *store.Store {
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		return st
	}
	drive := func(t *testing.T, cfg serve.Config) serve.HealthForTest {
		srv := serve.New(cfg)
		t.Cleanup(srv.Close)
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		if resp, body := postJSON(t, ts, "/v1/replica/records", record); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("push = %d: %s", resp.StatusCode, body)
		}
		req := jobRequest(t, store.KindCounters, key, opts.Warmup)
		if resp, body := doJSON(t, ts, "POST", "/v1/jobs", req, map[string]string{tenant.Header: "carol"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("job = %d: %s", resp.StatusCode, body)
		}
		// The job's slot is released after its response is written.
		deadline := time.Now().Add(10 * time.Second)
		for srv.JobStats().InFlight != 0 {
			if time.Now().After(deadline) {
				t.Fatal("job slot never released")
			}
			time.Sleep(time.Millisecond)
		}
		_, mbody := get(t, ts, "/metrics", nil)
		_, hbody := get(t, ts, "/healthz", nil)
		got := parseExposition(t, mbody)
		var h serve.HealthForTest
		if err := json.Unmarshal(hbody, &h); err != nil {
			t.Fatalf("healthz is not JSON: %v\n%s", err, hbody)
		}
		want := map[string]float64{}
		declaredSamples(reflect.ValueOf(h), "", want)
		for series, v := range want {
			m, ok := got[series]
			switch {
			case !ok:
				t.Errorf("/healthz declares %s = %g; /metrics has no such sample", series, v)
			case series == "dcserved_requests_total" || series == "dcserved_uptime_seconds":
			case m != v:
				t.Errorf("%s: /metrics %g, /healthz %g", series, m, v)
			}
		}
		for series := range got {
			if _, ok := want[series]; !ok && !handWritten.MatchString(series) {
				t.Errorf("/metrics sample %s is declared nowhere in /healthz", series)
			}
		}
		if h.Store == nil || h.Store.Adopted != 1 {
			t.Fatalf("healthz store block = %+v, want one adopted record", h.Store)
		}
		return h
	}

	t.Run("store", func(t *testing.T) {
		drive(t, serve.Config{Options: opts, Store: openStore(t), Logger: quietLog})
	})

	t.Run("dispatch", func(t *testing.T) {
		worker := serve.New(serve.Config{Options: opts, Logger: quietLog})
		t.Cleanup(worker.Close)
		wts := httptest.NewServer(worker.Handler())
		t.Cleanup(wts.Close)
		waddr := strings.TrimPrefix(wts.URL, "http://")
		st := openStore(t)
		remote, err := dispatch.New(dispatch.Options{Workers: []string{waddr}}, opts.Warmup,
			st.Backend(quietLog), quietLog)
		if err != nil {
			t.Fatal(err)
		}
		// Factor 1 keeps every record here and no loop runs, so the
		// replication block is present and holds still between scrapes.
		repl, err := replica.New(replica.Options{Peers: []string{waddr}, Factor: 1, Interval: -1}, st, quietLog)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(repl.Close)
		h := drive(t, serve.Config{Options: opts, Store: st, Backend: remote, Cluster: remote,
			Replica: repl, Logger: quietLog})
		if h.Store.Dispatch == nil || h.Store.Dispatch.RemoteHits != 1 || h.Store.Replication == nil ||
			h.Tenants == nil || len(h.Tenants.PerTenant) != 1 {
			t.Fatalf("front-end healthz lacks part of the full configuration: store %+v tenants %+v", h.Store, h.Tenants)
		}
	})
}

// handWritten matches the series /metrics writes by hand rather than from
// the /healthz document.
var handWritten = regexp.MustCompile(`^dcserved_(build_info|request_duration_seconds_\w+|job_duration_seconds_\w+)\{`)

// labelName matches one name="value" pair of a label set; values may hold
// escaped quotes and braces (mux patterns do).
var labelName = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:[^"\\]|\\.)*"`)

// parseExposition returns a /metrics body's samples by series (name plus
// label set), failing the test unless the body is well formed: each
// family's HELP and TYPE appear once and before its first sample, its
// samples are contiguous and no family or series repeats, and every sample
// of one name carries the same label names.
func parseExposition(t *testing.T, body []byte) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	help, typ := map[string]int{}, map[string]string{}
	closed := map[string]bool{}
	labelSets := map[string]string{}
	current := ""
	enter := func(family string) {
		if family == current {
			return
		}
		if closed[family] {
			t.Errorf("family %s reappears after another family", family)
		}
		closed[current], current = true, family
	}
	for _, line := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, _, _ := strings.Cut(rest, " ")
			enter(name)
			if help[name]++; help[name] > 1 {
				t.Errorf("family %s has %d HELP lines", name, help[name])
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			enter(name)
			if typ[name] != "" {
				t.Errorf("family %s has a second TYPE line", name)
			}
			typ[name] = kind
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		series := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Errorf("sample %q: %v", line, err)
		}
		name, labels, _ := strings.Cut(series, "{")
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && typ[base] == "histogram" {
				family = base
			}
		}
		enter(family)
		if help[family] != 1 || typ[family] == "" {
			t.Errorf("sample %s precedes its family's HELP and TYPE", series)
		}
		if _, dup := samples[series]; dup {
			t.Errorf("series %s repeats", series)
		}
		samples[series] = v
		var names []string
		for _, m := range labelName.FindAllStringSubmatch(labels, -1) {
			names = append(names, m[1])
		}
		set := strings.Join(names, ",")
		if prev, ok := labelSets[name]; ok && prev != set {
			t.Errorf("%s samples carry label sets {%s} and {%s}", name, prev, set)
		}
		labelSets[name] = set
	}
	return samples
}

// declaredSamples adds the series every declared number under v must
// have on /metrics, with its value, following the tag rules metrics.go
// documents: metric:"-" is skipped, untagged fields are walked into, a
// slice element's label:"…" string field labels its samples, and a tagged
// map is one sample per key.
func declaredSamples(v reflect.Value, labels string, out map[string]float64) {
	switch v.Kind() {
	case reflect.Pointer:
		if !v.IsNil() {
			declaredSamples(v.Elem(), labels, out)
		}
	case reflect.Slice:
		for i := range v.Len() {
			declaredSamples(v.Index(i), labels, out)
		}
	case reflect.Struct:
		add := func(labels, name, value string) string {
			return strings.TrimPrefix(labels+","+fmt.Sprintf("%s=%q", name, value), ",")
		}
		for i := range v.NumField() {
			if name := v.Type().Field(i).Tag.Get("label"); name != "" && v.Field(i).Kind() == reflect.String {
				labels = add(labels, name, v.Field(i).String())
			}
		}
		series := func(family, labels string) string {
			if labels == "" {
				return family
			}
			return family + "{" + labels + "}"
		}
		number := func(v reflect.Value) float64 {
			if v.CanInt() {
				return float64(v.Int())
			}
			return v.Float()
		}
		for i := range v.NumField() {
			f, fv := v.Type().Field(i), v.Field(i)
			family, _, _ := strings.Cut(f.Tag.Get("metric"), ",")
			switch {
			case family == "-":
			case family == "":
				declaredSamples(fv, labels, out)
			case fv.Kind() == reflect.Map:
				for _, k := range fv.MapKeys() {
					out[series(family, add(labels, f.Tag.Get("label"), k.String()))] = number(fv.MapIndex(k))
				}
			default:
				out[series(family, labels)] = number(fv)
			}
		}
	}
}
