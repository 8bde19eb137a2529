package serve

import (
	"context"
	"encoding/binary"
	"encoding/csv"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"dcbench/internal/core"
	"dcbench/internal/obs"
	"dcbench/internal/report"
	"dcbench/internal/sweep"
	"dcbench/internal/workloads"
)

// This file is the read side of dcserved: /v1/workloads, the per-workload
// counter files, figures 1–12 and tables 1–3. A read's body is a pure
// function of the run parameters and its endpoint, so the read responses
// are a closed set of 82 (endpoint, format) pairs: /v1/workloads and
// table 1 in both formats, 26 counter files ×2, 12 figures ×2, tables 2–3
// JSON only. New builds each one's key, validators and render once;
// handlers validate and normalise a URL to its member, so no URL adds one.
// A member renders once per process (a cold herd shares that render
// through Server.flight) and then keeps its body and Content-Length beside
// its validators, so a warm read formats and hashes nothing.

// read is one member of the closed set: one endpoint in one format.
type read struct {
	key    string   // the entity's identity under the run parameters
	etag   []string // header values are shared: len == cap, so an Add copies
	ctype  []string
	render func(ctx context.Context) ([]byte, error)
	body   atomic.Pointer[rendered] // nil until a render succeeds
}

// rendered is a retained body with its Content-Length header value.
type rendered struct {
	body   []byte
	length []string
}

// readPair is one endpoint's JSON and CSV members; csv is nil for an
// endpoint with no CSV form.
type readPair struct{ json, csv *read }

// readSet is the closed set, indexed the way handlers validate URLs.
type readSet struct {
	workloads readPair
	counters  map[string]readPair // by registry name
	figures   [12]readPair
	tables    [3]readPair // tables 2 and 3 are prose: JSON only
}

// The header values every read shares.
var (
	cacheControl = []string{"public, max-age=86400"}
	varyAccept   = []string{"Accept"}
	jsonType     = []string{"application/json"}
	csvType      = []string{"text/csv; charset=utf-8"}
)

// newReadSet builds the closed set over the server's run parameters.
// Renders read s.opts and s.engine when they run, not here.
func (s *Server) newReadSet() readSet {
	rs := readSet{counters: make(map[string]readPair)}
	rs.workloads = readPair{
		json: s.newRead("workloads?json", jsonType, func(context.Context) ([]byte, error) {
			return indentJSON(struct {
				Workloads []workloadInfo `json:"workloads"`
			}{workloadList()})
		}),
		csv: s.newRead("workloads?csv", csvType, func(context.Context) ([]byte, error) {
			return workloadsCSV()
		}),
	}
	for _, wl := range core.Registry() {
		key := "workloads/" + wl.Name + "/counters"
		build := func(ctx context.Context) (*core.Result, error) {
			jobs := []sweep.Job{{Name: wl.Name, Profile: wl.Profile, Gen: wl.Gen}}
			cs, err := s.engine.Run(ctx, jobs, s.opts.CoreConfig(),
				s.opts.Warmup+s.opts.Instrs, sweep.RunOptions{Workers: 1})
			if err != nil {
				return nil, err
			}
			return &core.Result{Workload: wl, Counters: cs[0]}, nil
		}
		rs.counters[wl.Name] = readPair{
			json: s.newRead(key+"?json", jsonType, encoded(build, func(res *core.Result) ([]byte, error) {
				return indentJSON(res.ToRecord())
			})),
			csv: s.newRead(key+"?csv", csvType, encoded(build, func(res *core.Result) ([]byte, error) {
				return tableCSV(metricsTable(res))
			})),
		}
	}
	for n := 1; n <= len(rs.figures); n++ {
		rs.figures[n-1] = s.tablePair(fmt.Sprintf("figures/%d", n), func(ctx context.Context) (*report.Table, error) {
			return report.FigureByNumber(ctx, s.opts, n)
		})
	}
	rs.tables[0] = s.tablePair("tables/1", func(ctx context.Context) (*report.Table, error) {
		t, _, err := report.TableByNumber(ctx, s.opts, 1)
		return t, err
	})
	for n := 2; n <= len(rs.tables); n++ {
		rs.tables[n-1].json = s.newRead(fmt.Sprintf("tables/%d?json", n), jsonType, func(ctx context.Context) ([]byte, error) {
			_, text, err := report.TableByNumber(ctx, s.opts, n)
			if err != nil {
				return nil, err
			}
			return indentJSON(struct {
				Title string `json:"title"`
				Text  string `json:"text"`
			}{strings.SplitN(text, "\n", 2)[0], text})
		})
	}
	return rs
}

// newRead builds one member; its ETag is computed here, once.
func (s *Server) newRead(key string, ctype []string, render func(context.Context) ([]byte, error)) *read {
	return &read{key: key, etag: []string{s.etag(key)}, ctype: ctype, render: render}
}

// tablePair is a table endpoint's two members.
func (s *Server) tablePair(key string, build func(context.Context) (*report.Table, error)) readPair {
	return readPair{
		json: s.newRead(key+"?json", jsonType, encoded(build, (*report.Table).JSON)),
		csv:  s.newRead(key+"?csv", csvType, encoded(build, tableCSV)),
	}
}

// encoded is the render that builds a value and encodes it.
func encoded[V any](build func(context.Context) (V, error), encode func(V) ([]byte, error)) func(context.Context) ([]byte, error) {
	return func(ctx context.Context) ([]byte, error) {
		v, err := build(ctx)
		if err != nil {
			return nil, err
		}
		return encode(v)
	}
}

func tableCSV(t *report.Table) ([]byte, error) { return []byte(t.CSV()), nil }

// pick negotiates the member a request asks for.
func (p readPair) pick(r *http.Request) *read {
	if wantCSV(r) {
		return p.csv
	}
	return p.json
}

// wantCSV is the content negotiation rule: ?format=csv|json wins, then an
// Accept header naming text/csv; JSON is the default.
func wantCSV(r *http.Request) bool {
	switch queryGet(r.URL.RawQuery, "format") {
	case "csv":
		return true
	case "json":
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "text/csv")
}

// queryGet is url.ParseQuery(raw).Get(key) without building the map: a
// pair holding ';' or a bad escape is skipped, keys and values are
// unescaped, and the first value wins.
func queryGet(raw, key string) string {
	for raw != "" {
		var pair string
		pair, raw, _ = strings.Cut(raw, "&")
		k, v, _ := strings.Cut(pair, "=")
		k, kerr := url.QueryUnescape(k)
		v, verr := url.QueryUnescape(v)
		if k == key && kerr == nil && verr == nil && !strings.Contains(pair, ";") {
			return v
		}
	}
	return ""
}

// etag derives the entity validator for an endpoint: every response is a
// pure function of the run parameters (seed, scale, instrs, warmup, config
// fingerprint — the warmup rides inside the fingerprint too) and the
// endpoint identity, so that tuple is the entity. The tag is FNV-1a over
// "seed|scale|instrs|warmup|fingerprint|key", the prefix hashed once in New.
func (s *Server) etag(key string) string {
	h := s.etagBasis
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211 // FNV-64 prime
	}
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// serveRead serves one member with cache validators: a matching
// If-None-Match never renders, a retained body is written as it is, and
// otherwise the body renders. The validators go out only on 304 and 200 —
// a failed render must not hand a shared cache a storable error.
func (s *Server) serveRead(w http.ResponseWriter, r *http.Request, rd *read) {
	h := w.Header()
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, rd.etag[0]) {
		rd.setValidators(h)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	body := rd.body.Load()
	if body == nil {
		var err error
		if body, err = s.render(r.Context(), rd); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				writeError(w, r, http.StatusServiceUnavailable, codeShuttingDown, "server shutting down")
				return
			}
			// The store/sweep internals behind a render are not the client's
			// business (and may name paths); the log keeps the detail, keyed
			// by the trace id the generic envelope hands the client.
			writeAPIError(w, r, s.internal(r.Context(), "render failed", err, "key", rd.key))
			return
		}
	}
	rd.setValidators(h)
	h["Content-Type"] = rd.ctype
	h["Content-Length"] = body.length
	w.Write(body.body)
}

func (rd *read) setValidators(h http.Header) {
	h["Cache-Control"] = cacheControl
	h["Etag"] = rd.etag
	// One URL serves two representations (wantCSV honours Accept), so a
	// shared cache must key on the Accept header too.
	h["Vary"] = varyAccept
}

// render renders rd once per process and retains its body; concurrent
// callers share one render.
func (s *Server) render(ctx context.Context, rd *read) (*rendered, error) {
	// Base context, not the request's: every caller is pinned until
	// shutdown, so a coalesced render survives the starting client's
	// disconnect, and Close — cancelling every caller at once — cancels the
	// render. The request's trace rides along so the render's spans land in
	// the timeline of the request that paid for it.
	return s.flight.DoShared(obs.With(s.baseCtx, obs.From(ctx)), rd, func(ctx context.Context) (*rendered, error) {
		// A render that settled after this caller looked has left the
		// flight already; its body is retained.
		if b := rd.body.Load(); b != nil {
			return b, nil
		}
		body, err := rd.render(ctx)
		if err != nil {
			return nil, err
		}
		b := &rendered{body: body, length: []string{strconv.Itoa(len(body))}}
		rd.body.Store(b) // before the flight settles, so no later caller renders
		return b, nil
	})
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	s.serveRead(w, r, s.reads.workloads.pick(r))
}

func (s *Server) handleCounters(w http.ResponseWriter, r *http.Request) {
	wl, err := core.ByName(r.PathValue("name"))
	if err != nil {
		writeError(w, r, http.StatusNotFound, codeNotFound, err.Error())
		return
	}
	s.serveRead(w, r, s.reads.counters[wl.Name].pick(r))
}

func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 1 || n > len(s.reads.figures) {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "figure number must be 1..12")
		return
	}
	s.serveRead(w, r, s.reads.figures[n-1].pick(r))
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil || n < 1 || n > len(s.reads.tables) {
		writeError(w, r, http.StatusBadRequest, codeBadRequest, "table number must be 1..3")
		return
	}
	rd := s.reads.tables[n-1].pick(r)
	if rd == nil {
		// Tables II and III are prose: JSON wraps the text, CSV has no
		// natural shape and is refused rather than faked.
		writeError(w, r, http.StatusNotAcceptable, codeNotAcceptable,
			fmt.Sprintf("table %d is prose; request JSON or text", n))
		return
	}
	s.serveRead(w, r, rd)
}

// workloadInfo is one row of the /v1/workloads listing. Cluster-capable
// workloads (the eleven Table I apps) carry their input size and Table II
// domains/scenarios.
type workloadInfo struct {
	Name      string   `json:"name"`
	Suite     string   `json:"suite"`
	Class     string   `json:"class"`
	InputGB   float64  `json:"input_gb,omitempty"`
	Domains   []string `json:"domains,omitempty"`
	Scenarios []string `json:"scenarios,omitempty"`
}

func workloadList() []workloadInfo {
	cluster := make(map[string]*workloads.Workload)
	for _, w := range workloads.All() {
		cluster[w.Name] = w
	}
	var out []workloadInfo
	for _, w := range core.Registry() {
		info := workloadInfo{Name: w.Name, Suite: w.Suite, Class: w.Class.String()}
		if cw, ok := cluster[w.Name]; ok {
			info.InputGB = cw.InputGB
			info.Domains = cw.Domains
			info.Scenarios = cw.Scenarios
		}
		out = append(out, info)
	}
	return out
}

// workloadsCSV is /v1/workloads as CSV.
func workloadsCSV() ([]byte, error) {
	var b strings.Builder
	cw := csv.NewWriter(&b)
	cw.Write([]string{"workload", "suite", "class", "input_gb"})
	for _, info := range workloadList() {
		gb := ""
		if info.InputGB > 0 {
			gb = strconv.FormatFloat(info.InputGB, 'f', -1, 64)
		}
		cw.Write([]string{info.Name, info.Suite, info.Class, gb})
	}
	cw.Flush()
	return []byte(b.String()), cw.Error()
}

// metricsTable flattens one result into a single-row table of the derived
// Figure 3-12 metrics — the CSV shape of the counters endpoint.
func metricsTable(res *core.Result) *report.Table {
	c := res.Counters
	return &report.Table{
		Title: res.Workload.Name + " derived metrics",
		Columns: []string{"ipc", "kernel_share", "l1i_mpki", "itlb_walks_pki",
			"l2_mpki", "l3_hit_ratio", "dtlb_walks_pki", "branch_misp_ratio"},
		Precision: 6,
		Rows: []report.Row{{Label: res.Workload.Name, Values: []float64{
			c.IPC(), c.KernelShare(), c.L1IMPKI(), c.ITLBWalksPKI(),
			c.L2MPKI(), c.L3HitRatio(), c.DTLBWalksPKI(), c.BranchMispredictRatio(),
		}}},
	}
}
