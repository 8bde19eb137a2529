package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/report"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/uarch"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		n      int
		q      float64
		want   float64
		beyond int
	}{
		{200, 50, 100, 100},
		{200, 95, 190, 10},
		{199, 95, 190, 9}, // ceil(0.95*199) = 190
		{200, 99, 198, 2},
		{3, 95, 3, 0}, // too few samples: the percentile is the maximum
		{1, 50, 1, 0},
	} {
		got, beyond := percentile(xs[:tc.n], tc.q)
		if got != tc.want || beyond != tc.beyond {
			t.Errorf("percentile(1..%d, %g) = %g with %d beyond, want %g with %d", tc.n, tc.q, got, beyond, tc.want, tc.beyond)
		}
	}
	if v, beyond := percentile(nil, 95); v != 0 || beyond != 0 {
		t.Errorf("percentile of nothing = %g, %d", v, beyond)
	}
	// The rule for quoting a tail: at least ten samples beyond it.
	if _, b := percentile(xs[:200], 95); !supported(b) {
		t.Error("p95 of 200 samples has ten beyond it and must be supported")
	}
	if _, b := percentile(xs[:199], 95); supported(b) {
		t.Error("p95 of 199 samples has nine beyond it and must not be supported")
	}
}

// fakeOracle answers every read path with a distinct fake page, so the op
// generators can be exercised without a sweep.
func fakeOracle(paths []string) *oracle {
	o := &oracle{pages: map[string]expected{}}
	for _, p := range paths {
		o.pages[p] = expected{body: []byte("body of " + p + "\n"), etag: `"` + p + `"`}
	}
	return o
}

func TestSameSeedSameOps(t *testing.T) {
	paths := readPaths()
	if len(paths) != 55 {
		t.Fatalf("%d read paths, want 55", len(paths))
	}
	o := fakeOracle(paths)
	render := func(gen func(int) *op) string {
		var b strings.Builder
		for i := 0; i < 300; i++ {
			op := gen(i)
			b.WriteString(op.method + " " + op.url + " " + op.class + " ")
			b.Write(op.body)
			for _, h := range op.header {
				b.WriteString(" " + h[0] + "=" + h[1])
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	reads := func(seed uint64) string { return render(o.mixedReads(seed, "http://x", paths)) }
	jobs := func(seed uint64) string {
		js := newJobSpec(seed, shortJobInstrs)
		return render(func(i int) *op { return js.op(i, "http://x") })
	}
	for name, gen := range map[string]func(uint64) string{"reads": reads, "jobs": jobs} {
		if gen(7) != gen(7) {
			t.Errorf("%s: the same seed gave two op sequences", name)
		}
		if gen(7) == gen(8) {
			t.Errorf("%s: two seeds gave the same op sequence", name)
		}
	}
	// Every 4th read revalidates; every job key is new.
	gen := o.mixedReads(7, "http://x", paths)
	for i := 0; i < 40; i++ {
		if got := gen(i).class == "304"; got != (i%4 == 3) {
			t.Errorf("op %d: revalidates = %v", i, got)
		}
	}
	js, seen := newJobSpec(7, shortJobInstrs), map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		k := js.key(i)
		if seen[k.Profile.Seed] {
			t.Fatalf("job %d reuses profile seed %d", i, k.Profile.Seed)
		}
		seen[k.Profile.Seed] = true
		if want := core.Registry()[i%26].Name; k.Name != want {
			t.Fatalf("job %d is %s, want round-robin %s", i, k.Name, want)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	// root [0,100]
	//   a [10,50]      children b [20,30] and c [25,45] overlap: union 25
	//   d [60,90]      no children
	spans := []*span{
		{Name: "d", StartMS: 60, DurMS: 30},
		{Name: "root", StartMS: 0, DurMS: 100},
		{Name: "c", StartMS: 25, DurMS: 20},
		{Name: "a", StartMS: 10, DurMS: 40},
		{Name: "b", StartMS: 20, DurMS: 10},
	}
	nest(spans)
	by := map[string]*span{}
	for _, s := range spans {
		by[s.Name] = s
	}
	for name, parent := range map[string]string{"a": "root", "b": "a", "c": "a", "d": "root"} {
		if by[name].Parent != by[parent].ID {
			t.Errorf("%s hangs under span %d, want %s (%d)", name, by[name].Parent, parent, by[parent].ID)
		}
	}
	for name, want := range map[string]float64{"root": 30, "a": 15, "b": 10, "c": 20, "d": 30} {
		if got := by[name].SelfMS; math.Abs(got-want) > 1e-9 {
			t.Errorf("self time of %s = %g, want %g", name, got, want)
		}
	}
	if by["root"].Parent != 0 {
		t.Error("the root has a parent")
	}
	root := &span{StartMS: 0, DurMS: 100}
	if got := covered(root, []*span{{StartMS: 95, DurMS: 35}, {StartMS: -5, DurMS: 10}}); got != 10 {
		t.Errorf("children sticking out cover %g of the parent, want 10", got)
	}

	// One op as the traced run assembles it: what no named span covers is
	// unattributed.
	op := []*span{
		{Name: "op", StartMS: 0, DurMS: 10},
		{Name: "http.roundtrip", StartMS: 0, DurMS: 9},
		{Name: "server POST /v1/jobs", StartMS: 1, DurMS: 7},
		{Name: "simulate", StartMS: 2, DurMS: 5},
		{Name: "sweep.join", StartMS: 7.2, DurMS: 0.5},
		{Name: "verify", StartMS: 9, DurMS: 1},
	}
	nest(op)
	got := spanMetrics([][]*span{op})
	for name, want := range map[string]float64{"span.simulate_ms": 5, "span.join_ms": 0.5, "span.unattributed_ms": 3.5, "span.dispatch_ms": 0} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
}

// drive runs a few ops of gen against a test server and returns the phase.
func drive(t *testing.T, n int, gen func(i int) *op, verify func(*op, int, http.Header, []byte) error) *phase {
	t.Helper()
	return closedLoop(loopSpec{clients: 2, maxOps: n, gen: gen, verify: verify})
}

func TestWrongBytesFail(t *testing.T) {
	paths := readPaths()
	o := fakeOracle(paths)
	var flip atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		page, ok := o.pages[r.URL.RequestURI()]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Etag", page.etag)
		if r.Header.Get("If-None-Match") == page.etag {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		body := bytes.Clone(page.body)
		if flip.Load() {
			body[len(body)/2] ^= 1
		}
		w.Write(body)
	}))
	defer ts.Close()
	gen := o.mixedReads(3, ts.URL, paths)
	if p := drive(t, 40, gen, verifyRead); p.failed != 0 || p.attempted != 40 {
		t.Fatalf("honest server: %d of %d failed: %v", p.failed, p.attempted, p.errs)
	}
	flip.Store(true)
	p := drive(t, 40, gen, verifyRead)
	// Every 200 carries a flipped byte; the 304s have no body to flip.
	if p.failed != 30 || len(p.samples) != 10 {
		t.Fatalf("one flipped byte: %d of %d failed with %d samples, want 30 failed and 10 samples: %v",
			p.failed, p.attempted, len(p.samples), p.errs)
	}
}

func TestWrongKeyFails(t *testing.T) {
	js := newJobSpec(5, shortJobInstrs)
	counters := &uarch.Counters{Cycles: 10, Instructions: 5}
	var mode atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req serve.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		asked := js.key(0)
		if err := json.Unmarshal(req.Key, &asked); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		answer := asked
		if mode.Load() == "wrong key" {
			answer.Profile.Seed++ // a valid, checksummed record — for somebody else's key
		}
		rec, err := store.EncodeCounters(answer, counters)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if mode.Load() == "flipped byte" {
			rec[len(rec)/2] ^= 1
		}
		w.Write(rec)
	}))
	defer ts.Close()
	gen := func(i int) *op { return js.op(i, ts.URL) }
	for _, tc := range []struct {
		mode   string
		failed int
	}{{"honest", 0}, {"wrong key", 20}, {"flipped byte", 20}} {
		mode.Store(tc.mode)
		if p := drive(t, 20, gen, verifyCounters); p.failed != tc.failed || p.attempted != 20 {
			t.Errorf("%s server: %d of %d failed, want %d: %v", tc.mode, p.failed, p.attempted, tc.failed, p.errs)
		}
	}
}

// TestWorkloadGeneratorsSmoke drives each workload's op generator against
// an in-process server at a tiny trace length and scale, with the oracle at
// the same options: every response must verify.
func TestWorkloadGeneratorsSmoke(t *testing.T) {
	opts := report.DefaultOptions()
	opts.Instrs, opts.Warmup, opts.Scale = 8_000, 4_000, 0.002
	srv := serve.New(serve.Config{Options: opts, Logger: quiet})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	paths := readPaths()
	if testing.Short() {
		paths = paths[:29] // figures, tables and the listing; skip the 26 counter files
	}
	or, err := newOracle(opts, paths, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer or.close()
	t.Run("warm_reads", func(t *testing.T) {
		if p := drive(t, 2*len(paths), or.mixedReads(1, ts.URL, paths), verifyRead); p.failed != 0 {
			t.Errorf("%d of %d failed: %v", p.failed, p.attempted, p.errs)
		}
	})
	t.Run("cold_figures", func(t *testing.T) {
		pull := paperPaths()
		if p := drive(t, len(pull), or.pulls(0, ts.URL, pull), verifyRead); p.failed != 0 {
			t.Errorf("%d of %d failed: %v", p.failed, p.attempted, p.errs)
		}
	})
	for _, name := range []string{"cold_jobs", "dispatch_jobs"} {
		t.Run(name, func(t *testing.T) {
			js := jobSpec{seed: 1, maxInstrs: 6_000, warmup: opts.Warmup, configFP: opts.CoreConfig().Fingerprint()}
			kept := &keptBodies{bodies: map[int][]byte{}, n: 3}
			gen := func(i int) *op { return js.op(i, ts.URL) }
			if p := drive(t, 26, gen, kept.wrap(verifyCounters)); p.failed != 0 {
				t.Fatalf("%d of %d failed: %v", p.failed, p.attempted, p.errs)
			}
			// The job oracle: the same key simulated in this process.
			for i, got := range kept.bodies {
				want, err := simulateRecord(js.key(i), js.warmup)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("job %d: the server's record differs from the in-process simulation", i)
				}
			}
		})
	}
}

func TestParseProm(t *testing.T) {
	got, err := parseProm(strings.NewReader(`# HELP dcserved_requests_total HTTP requests handled.
# TYPE dcserved_requests_total counter
dcserved_requests_total 42
dcserved_request_duration_seconds_sum{endpoint="GET /v1/figures/{n}"} 0.125
dcserved_request_duration_seconds_bucket{endpoint="GET /v1/figures/{n}",le="+Inf"} 7
`))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"dcserved_requests_total": 42,
		`dcserved_request_duration_seconds_sum{endpoint="GET /v1/figures/{n}"}`:              0.125,
		`dcserved_request_duration_seconds_bucket{endpoint="GET /v1/figures/{n}",le="+Inf"}`: 7,
	} {
		if got[name] != want {
			t.Errorf("%s = %g, want %g", name, got[name], want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// → [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) → [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles = %g, %g, want 1, 3", q1, q3)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(by float64) []float64 {
		out := make([]float64, len(steady))
		for i, x := range steady {
			out[i] = x * by
		}
		return out
	}
	noisy := []float64{60, 140, 100, 80, 120, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name        string
		a, b        []float64
		lowerBetter bool
		want        string
	}{
		{"same runs", steady, steady, true, "unchanged"},
		{"within the bound", steady, shift(1.05), true, "unchanged"},
		{"past the bound, lower is better", steady, shift(1.2), true, "regressed"},
		{"past the bound, higher is better", steady, shift(0.8), false, "regressed"},
		{"a gain, lower is better", steady, shift(0.9), true, "improved"},
		{"a gain, higher is better", steady, shift(1.1), false, "improved"},
		{"spread wider than the bound", noisy, noisy, true, "unresolved"},
		{"noisy, yet every run better", noisy, shift(0.5), true, "improved"},
	} {
		if got, _ := verdict(tc.a, tc.b, tc.lowerBetter, 0.1); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestDigest48(t *testing.T) {
	a := digest48([]byte("ab"), []byte("c"))
	if a != digest48([]byte("ab"), []byte("c")) {
		t.Error("digest does not repeat")
	}
	if a == digest48([]byte("a"), []byte("bc")) {
		t.Error("digest ignores where one part ends")
	}
	if a >= 1<<48 || a != math.Trunc(a) {
		t.Errorf("digest %g is not a 48-bit integer", a)
	}
}

// TestBenchmarkFileMatchesSpec keeps BENCHMARK.json and the tables in
// spec.go from drifting, and inside the limits of the benchmark contract.
func TestBenchmarkFileMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Paths) != 1 || bf.Paths[0] != "bench" {
		t.Errorf("paths = %v", bf.Paths)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bf.RunSeconds)
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(bf.Workloads), len(workloadNames))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (%d)", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in spec.go", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].Name || m.Unit != want[i].Unit || m.Better != want[i].Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, m, want[i])
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s %s: name, unit or direction outside the contract", kind, m.Name)
			}
			if seen[m.Name] {
				t.Errorf("name %s is used twice", m.Name)
			}
			seen[m.Name] = true
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 || len(data) > 64<<10 {
		t.Error("BENCHMARK.json is over the contract's size limits")
	}
	if bf.EndToEnd[0].Name != "setup_s" || bf.EndToEnd[0].Unit != "s" || bf.EndToEnd[0].Better != "lower" {
		t.Error("the contract needs setup_s in seconds, lower is better")
	}
	for _, m := range bf.EndToEnd[1:] {
		if *m.Bound > *bf.EndToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

func TestProcStats(t *testing.T) {
	// The /proc readers, pointed at this very process.
	cpu, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	rss, err := procRSSMiB(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if cpu < 0 || cpu > time.Hour || rss < 1 || rss > 1<<20 {
		t.Errorf("implausible cpu %v, rss %g MiB", cpu, rss)
	}
}
