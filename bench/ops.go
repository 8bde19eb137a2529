package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"

	"dcbench/internal/core"
	"dcbench/internal/report"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/workloads"
)

// This file generates the operations the workloads send and holds the
// correctness oracle they are verified against: an in-process, storeless
// serve.Server at the same options as the spawned binary. Every response
// is a pure function of the run parameters, so byte identity against this
// single-process oracle is the correctness test for every topology.

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// mix is splitmix64: the one seeded function every generated input goes
// through, so the same seed gives the same inputs on every run.
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// readPaths lists the 55 read URLs of the service in a fixed order: the 12
// figures as JSON and CSV, tables 1-3 as JSON plus table 1 as CSV, the
// workload listing, and every registry workload's counter file.
func readPaths() []string {
	var out []string
	for n := 1; n <= 12; n++ {
		out = append(out, fmt.Sprintf("/v1/figures/%d", n), fmt.Sprintf("/v1/figures/%d?format=csv", n))
	}
	out = append(out, "/v1/tables/1", "/v1/tables/1?format=csv", "/v1/tables/2", "/v1/tables/3", "/v1/workloads")
	for _, w := range core.Registry() {
		out = append(out, "/v1/workloads/"+url.PathEscape(w.Name)+"/counters")
	}
	return out
}

// paperPaths is the cold_figures pull list: figures 1-12 and tables 1-3 in
// the paper's order.
func paperPaths() []string {
	var out []string
	for n := 1; n <= 12; n++ {
		out = append(out, fmt.Sprintf("/v1/figures/%d", n))
	}
	return append(out, "/v1/tables/1", "/v1/tables/2", "/v1/tables/3")
}

// expected is the oracle's answer for one read URL.
type expected struct {
	body []byte
	etag string
	inm  bool // the op carries If-None-Match and must be answered 304
}

// oracle is the single-process reference server.
type oracle struct {
	srv     *serve.Server
	handler http.Handler
	pages   map[string]expected
}

// newOracle builds the reference server at the given options (the shipped
// defaults, with the seed the spawned servers get) and renders every path
// once, from as many goroutines as the workloads have clients: the first
// render of a figure is a full cold sweep. It runs before the first spawn,
// never while a phase is measured.
func newOracle(opts report.Options, paths []string, workers int) (*oracle, error) {
	srv := serve.New(serve.Config{Options: opts, Logger: quiet})
	o := &oracle{srv: srv, handler: srv.Handler(), pages: make(map[string]expected)}
	pages := make([]expected, len(paths))
	errs := make([]error, len(paths))
	if err := sweep.Each(context.Background(), workers, len(paths), func(i int) {
		rec := httptest.NewRecorder()
		o.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[i], nil))
		if rec.Code != http.StatusOK {
			errs[i] = fmt.Errorf("oracle %s answered %d: %s", paths[i], rec.Code, rec.Body.String())
			return
		}
		pages[i] = expected{body: rec.Body.Bytes(), etag: rec.Header().Get("Etag")}
	}); err != nil {
		return nil, err
	}
	if err := errors.Join(errs...); err != nil {
		srv.Close()
		return nil, err
	}
	for i, p := range paths {
		o.pages[p] = pages[i]
	}
	return o, nil
}

func (o *oracle) close() { o.srv.Close() }

// readOp builds the GET for path against base; with revalidate set it
// carries the right validator and expects a 304.
func (o *oracle) readOp(i int, base, path string, revalidate bool) *op {
	want := o.pages[path]
	out := &op{index: i, method: http.MethodGet, url: base + path, class: "200"}
	switch {
	case revalidate:
		want.inm = true
		out.class = "304"
		out.header = [][2]string{{"If-None-Match", want.etag}}
	case strings.HasSuffix(path, "format=csv"):
		out.class = "csv"
	}
	out.want = want
	return out
}

// mixedReads is the warm_reads generator: a seeded uniform mix of the read
// URLs in which every 4th op revalidates and must get a 304.
func (o *oracle) mixedReads(seed uint64, base string, paths []string) func(i int) *op {
	return func(i int) *op {
		return o.readOp(i, base, paths[mix(seed, i)%uint64(len(paths))], i%4 == 3)
	}
}

// pulls is the cold_figures generator: paths in order from cursor value
// first, as a script regenerating the paper would pull them.
func (o *oracle) pulls(first int, base string, paths []string) func(i int) *op {
	return func(i int) *op {
		out := o.readOp(i, base, paths[i-first], false)
		out.class = "pull"
		return out
	}
}

// verifyRead checks one read response byte for byte against the oracle.
func verifyRead(o *op, status int, h http.Header, body []byte) error {
	want := o.want.(expected)
	if want.inm {
		if status != http.StatusNotModified {
			return fmt.Errorf("status %d, want 304", status)
		}
		if len(body) != 0 {
			return fmt.Errorf("304 carried %d body bytes", len(body))
		}
		return nil
	}
	if status != http.StatusOK {
		return fmt.Errorf("status %d, want 200: %.120s", status, body)
	}
	if got := h.Get("Etag"); got != want.etag {
		return fmt.Errorf("etag %s, oracle says %s", got, want.etag)
	}
	if !bytes.Equal(body, want.body) {
		return fmt.Errorf("body differs from the oracle (%d vs %d bytes)", len(body), len(want.body))
	}
	return nil
}

// jobSpec is what a counters-job workload varies.
type jobSpec struct {
	seed      uint64
	maxInstrs int64 // total trace length, warm-up included
	warmup    int64 // the servers' shipped -warmup: the key's fingerprint embeds it
	configFP  uint64
}

func newJobSpec(seed uint64, maxInstrs int64) jobSpec {
	opts := report.DefaultOptions()
	return jobSpec{seed: seed, maxInstrs: maxInstrs, warmup: opts.Warmup,
		configFP: opts.CoreConfig().Fingerprint()}
}

// key is the i-th job's sweep key: registry workloads round-robin, each
// with a profile seed nobody has used before, so every job is cold.
func (js jobSpec) key(i int) sweep.Key {
	reg := core.Registry()
	w := reg[i%len(reg)]
	p := w.Profile
	p.Seed = mix(js.seed, i)
	return sweep.Key{Name: w.Name, Profile: p, ConfigFP: js.configFP, MaxInstrs: js.maxInstrs}
}

// jobOp encodes one POST /v1/jobs request of the given kind; query is ""
// or "?wait=false".
func jobOp(i int, base, query, kind string, key any, warmup int64) (*op, error) {
	raw, err := json.Marshal(key)
	if err != nil {
		return nil, err
	}
	body, err := json.Marshal(serve.JobRequest{Kind: kind, Key: raw, Warmup: warmup})
	if err != nil {
		return nil, err
	}
	return &op{index: i, class: "job", method: http.MethodPost, url: base + "/v1/jobs" + query,
		body: body, header: [][2]string{{"Content-Type", "application/json"}}, want: key}, nil
}

func counterJob(i int, base string, key sweep.Key, warmup int64, query string) (*op, error) {
	return jobOp(i, base, query, store.KindCounters, key, warmup)
}

func (js jobSpec) op(i int, base string) *op {
	o, err := counterJob(i, base, js.key(i), js.warmup, "")
	if err != nil {
		panic(err) // a sweep.Key of scalars cannot fail to marshal
	}
	return o
}

// verifyCounters decodes a job response with the store's own codec (kind,
// checksum) and checks it answers the key that was asked.
func verifyCounters(o *op, status int, _ http.Header, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d, want 200: %.160s", status, body)
	}
	got, c, err := store.DecodeCounters(body)
	if err != nil {
		return err
	}
	if want := o.want.(sweep.Key); got != want {
		return fmt.Errorf("record is for %s/seed %d, asked %s/seed %d", got.Name, got.Profile.Seed, want.Name, want.Profile.Seed)
	}
	if c.Instructions <= 0 || c.Cycles <= 0 {
		return errors.New("record carries empty counters")
	}
	return nil
}

func clusterJob(i int, base string, key workloads.StatsKey) (*op, error) {
	return jobOp(i, base, "", store.KindCluster, key, 0)
}

func verifyCluster(o *op, status int, _ http.Header, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d, want 200: %.160s", status, body)
	}
	got, st, err := store.DecodeStats(body)
	if err != nil {
		return err
	}
	if want := o.want.(workloads.StatsKey); got != want {
		return fmt.Errorf("record is for %+v, asked %+v", got, want)
	}
	if st.Makespan <= 0 {
		return errors.New("record carries empty stats")
	}
	return nil
}

// simulateRecord is the job oracle: the same key run through a private,
// storeless engine in this process and encoded with the store's codec. A
// worker's answer must equal it byte for byte.
func simulateRecord(key sweep.Key, warmup int64) ([]byte, error) {
	w, err := core.ByName(key.Name)
	if err != nil {
		return nil, err
	}
	opts := report.DefaultOptions()
	opts.Warmup = warmup
	cs, err := sweep.NewEngine().Run(context.Background(),
		[]sweep.Job{{Name: w.Name, Profile: key.Profile, Gen: w.Gen}},
		opts.CoreConfig(), key.MaxInstrs, sweep.RunOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	return store.EncodeCounters(key, cs[0])
}
