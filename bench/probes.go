package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dcbench/internal/core"
	"dcbench/internal/memo"
	"dcbench/internal/memtrace"
	"dcbench/internal/memtrace/tracecache"
	"dcbench/internal/obs"
	"dcbench/internal/report"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/tenant"
	"dcbench/internal/uarch"
	"dcbench/internal/uarch/bpred"
	"dcbench/internal/uarch/cache"
	"dcbench/internal/uarch/mmu"
	"dcbench/internal/workloads"
)

// This file is the in-process layer probes: timed direct calls into each
// package's exported functions, each inside a benchmark span named for its
// layer. They run single-threaded after the traced phase, with no server
// alive, so a number here is the layer's own cost and nothing else's.

// prober carries what one probe hands the next: the default-options
// counters and cluster stats are computed once and reused as the digest
// inputs and as the backing data of the in-process serve probes.
type prober struct {
	h     *harness
	out   map[string]float64
	t0    time.Time
	spans []*span
	stack []string

	opts    report.Options
	results []*core.Result                          // registry order, default options
	stats   map[workloads.StatsKey]*workloads.Stats // the 33 cluster cells, default options
	problem func(format string, args ...any)
}

// in runs fn inside a span. Nested calls name the call after its layer:
// in("store", ...) { in("put", ...) } records "store" and "store.put".
func (p *prober) in(name string, fn func() error) error {
	p.stack = append(p.stack, name)
	full := p.stack[0]
	for _, s := range p.stack[1:] {
		full += "." + s
	}
	start := time.Now()
	err := fn()
	p.spans = append(p.spans, &span{TraceID: "probes", Proc: "bench", Name: full,
		StartMS: ms(start.Sub(p.t0)), DurMS: ms(time.Since(start))})
	p.stack = p.stack[:len(p.stack)-1]
	return err
}

// perCall times n single calls and returns the median, in the unit given
// by per (time.Microsecond → µs). For calls of a microsecond and up, where
// the clock's own ~50 ns does not matter.
func perCall(n int, per time.Duration, fn func(i int)) float64 {
	ds := make([]float64, n)
	for i := range ds {
		t := time.Now()
		fn(i)
		ds[i] = float64(time.Since(t)) / float64(per)
	}
	return median(ds)
}

// perBatch times batches of calls and returns the median batch's mean, in
// ns per call. For calls too short to time one at a time.
func perBatch(batches, size int, fn func()) float64 {
	ds := make([]float64, batches)
	for b := range ds {
		t := time.Now()
		for i := 0; i < size; i++ {
			fn()
		}
		ds[b] = float64(time.Since(t).Nanoseconds()) / float64(size)
	}
	return median(ds)
}

func drainTrace(r memtrace.Reader) int64 {
	var buf [8192]memtrace.Inst
	var n int64
	for {
		m := r.Read(buf[:])
		if m == 0 {
			return n
		}
		n += int64(m)
	}
}

// instructions probes the per-instruction chain — generate, capture,
// replay, simulate — over all 26 registry workloads at the shipped trace
// length, one workload at a time, and keeps the counters.
func (p *prober) instructions() error {
	ctx := context.Background()
	n := p.opts.Warmup + p.opts.Instrs
	cfg := p.opts.CoreConfig()
	tc := tracecache.New(tracecache.DefaultMaxBytes)
	var genNS, shortNS, capNS, replayNS, runNS, genN, shortN, capN, replayN, runN int64
	var resets []float64
	var cpu *uarch.Core

	p.in("uarch", func() error {
		return p.in("newcore", func() error {
			p.out["uarch.newcore_us"] = perCall(3, time.Microsecond, func(int) { cpu = uarch.NewCore(cfg) })
			return nil
		})
	})
	for _, w := range core.Registry() {
		prof := w.Profile
		prof.MaxInstrs = n
		short := w.Profile
		short.MaxInstrs = shortJobInstrs
		p.in("memtrace", func() error {
			t := time.Now()
			genN += drainTrace(memtrace.NewReader(prof, w.Gen))
			genNS += time.Since(t).Nanoseconds()
			t = time.Now()
			shortN += drainTrace(memtrace.NewReader(short, w.Gen))
			shortNS += time.Since(t).Nanoseconds()
			return nil
		})
		var insts []memtrace.Inst
		if err := p.in("tracecache", func() error {
			// The first Reader call on a key generates and encodes the
			// whole trace before returning; the second replays it.
			t := time.Now()
			r, _, err := tc.Reader(ctx, w.Name, prof, w.Gen)
			if err != nil {
				return err
			}
			capNS += time.Since(t).Nanoseconds()
			capN += drainTrace(r)
			if r, _, err = tc.Reader(ctx, w.Name, prof, w.Gen); err != nil {
				return err
			}
			t = time.Now()
			replayN += drainTrace(r)
			replayNS += time.Since(t).Nanoseconds()
			if r, _, err = tc.Reader(ctx, w.Name, prof, w.Gen); err != nil {
				return err
			}
			insts = memtrace.Collect(r, int(n))
			return nil
		}); err != nil {
			return err
		}
		p.in("uarch", func() error {
			t := time.Now()
			cpu.Reset(cfg)
			resets = append(resets, float64(time.Since(t).Nanoseconds())/1e3)
			// The step loop alone: a materialised trace, no generator and
			// no decoder in the timing. Statistics start after the
			// shipped warm-up, as everywhere else.
			t = time.Now()
			c := *cpu.Run(memtrace.NewSliceReader(insts))
			runNS += time.Since(t).Nanoseconds()
			runN += int64(len(insts))
			p.results = append(p.results, &core.Result{Workload: w, Counters: &c})
			return nil
		})
	}
	st := tc.Stats()
	if st.Captures != int64(len(p.results)) || st.Fallbacks != 0 {
		p.problem("tracecache probe: %d captures and %d fallbacks for %d workloads", st.Captures, st.Fallbacks, len(p.results))
	}
	p.out["memtrace.gen_ns_per_instr"] = float64(genNS) / float64(genN)
	p.out["memtrace.gen_short_ns_per_instr"] = float64(shortNS) / float64(shortN)
	p.out["tracecache.capture_ns_per_instr"] = float64(capNS) / float64(capN)
	p.out["tracecache.replay_ns_per_instr"] = float64(replayNS) / float64(replayN)
	p.out["tracecache.bytes_per_instr"] = float64(st.Bytes) / float64(capN)
	p.out["uarch.run_ns_per_instr"] = float64(runNS) / float64(runN)
	p.out["uarch.reset_us"] = median(resets)
	return nil
}

// fidelity reports what a simulator-only speed-up must leave identical:
// the digest of all 26 counter files and the model's error against the
// paper's reference values.
func (p *prober) fidelity() error {
	return p.in("core", func() error {
		parts := make([][]byte, len(p.results))
		var ipc, l2 []float64
		for i, r := range p.results {
			data, err := json.Marshal(r.ToRecord())
			if err != nil {
				return err
			}
			parts[i] = data
			if ref := r.Workload.Paper; ref.IPC > 0 {
				ipc = append(ipc, 100*math.Abs(r.Counters.IPC()-ref.IPC)/ref.IPC)
			}
			if ref := r.Workload.Paper; ref.L2MPKI > 0 {
				l2 = append(l2, 100*math.Abs(r.Counters.L2MPKI()-ref.L2MPKI)/ref.L2MPKI)
			}
		}
		p.out["core.counters_digest48"] = digest48(parts...)
		p.out["core.paper_ipc_mape_pct"] = mean(ipc)
		p.out["core.paper_l2mpki_mape_pct"] = mean(l2)
		return nil
	})
}

// structures probes the simulated structures one access at a time, on
// seeded address streams that both hit and miss.
func (p *prober) structures() {
	cfg := p.opts.CoreConfig()
	const n = 1 << 20
	addrs := make([]uint64, n)
	for i := range addrs {
		addrs[i] = mix(1, i)
	}
	p.in("uarch", func() error {
		p.in("cache", func() error {
			l3 := cache.New("L3", cfg.L3Size, cfg.L3Ways, 64)
			i := 0
			p.out["uarch.cache_access_ns"] = perBatch(8, n/8, func() { l3.Access(addrs[i] % (4 * uint64(cfg.L3Size))); i++ })
			return nil
		})
		p.in("tlb", func() error {
			tlb := &mmu.Hierarchy{L1: mmu.NewTLB(cfg.DTLBEntries, cfg.TLBWays), L2: mmu.NewTLB(cfg.L2TLBEntries, cfg.TLBWays),
				WalkLatency: cfg.WalkLat, L2Latency: cfg.TLBL2Lat}
			i := 0
			p.out["uarch.tlb_translate_ns"] = perBatch(8, n/8, func() { tlb.Translate(addrs[i] % (8 << 20)); i++ })
			return nil
		})
		return p.in("bpred", func() error {
			bp := bpred.NewTournament(14)
			i := 0
			p.out["uarch.bpred_ns"] = perBatch(8, n/8, func() {
				pc, taken := addrs[i]%(64<<10), addrs[i]>>40&3 != 0
				bp.Predict(pc)
				bp.Update(pc, taken)
				i++
			})
			return nil
		})
	})
}

// sweepLen is the trace length of the sweep probe: long enough that the
// step loop, not Reset, dominates a job; short enough to run the registry
// twice inside a traced run.
const sweepLen = 200_000

func (p *prober) sweeps() error {
	ctx := context.Background()
	return p.in("sweep", func() error {
		jobs, cfg := core.RegistryJobs(), p.opts.CoreConfig()
		e := sweep.NewEngine()
		timed := func(name string, workers int) (float64, []*uarch.Counters, error) {
			var cs []*uarch.Counters
			t := time.Now()
			err := p.in(name, func() (err error) {
				cs, err = e.Run(ctx, jobs, cfg, sweepLen, sweep.RunOptions{Workers: workers, NoMemo: true})
				return err
			})
			return time.Since(t).Seconds(), cs, err
		}
		width := runtime.NumCPU()
		j1, serial, err := timed("j1", 1)
		if err != nil {
			return err
		}
		jn, parallel, err := timed("jn", width)
		if err != nil {
			return err
		}
		for i := range serial {
			if *serial[i] != *parallel[i] {
				p.problem("sweep probe: %s differs between -j 1 and -j %d", jobs[i].Name, width)
			}
		}
		p.out["sweep.registry_j1_s"] = j1
		p.out["sweep.parallel_efficiency"] = j1 / (jn * float64(width))
		if _, err := e.Run(ctx, jobs[:1], cfg, sweepLen, sweep.RunOptions{Workers: 1}); err != nil {
			return err
		}
		return p.in("memo_hit", func() error {
			p.out["sweep.memo_hit_ns"] = perBatch(8, 500, func() {
				e.Run(ctx, jobs[:1], cfg, sweepLen, sweep.RunOptions{Workers: 1})
			})
			return nil
		})
	})
}

// slaveCounts are Figure 2's cluster sizes.
var slaveCounts = []int{1, 4, 8}

// cluster runs the 33 cells of the paper's cluster experiments serially at
// the shipped scale and seed.
func (p *prober) cluster() error {
	p.stats = make(map[workloads.StatsKey]*workloads.Stats)
	return p.in("workloads", func() error {
		start := time.Now()
		worst := 0.0
		for _, w := range workloads.All() {
			for _, n := range slaveCounts {
				t := time.Now()
				st, err := w.Run(workloads.NewEnv(n, p.opts.Scale, p.opts.Seed))
				if err != nil {
					return fmt.Errorf("%s on %d slaves: %w", w.Name, n, err)
				}
				worst = math.Max(worst, ms(time.Since(t)))
				p.stats[workloads.StatsKey{Workload: w.Name, Slaves: n, Scale: p.opts.Scale, Seed: p.opts.Seed}] = st
			}
		}
		p.out["workloads.matrix_s"] = time.Since(start).Seconds()
		p.out["workloads.cell_ms_max"] = worst
		return nil
	})
}

func probeKey(i int) sweep.Key {
	return sweep.Key{Name: fmt.Sprintf("probe-%d", i), Profile: memtrace.Profile{Seed: uint64(i)}, ConfigFP: 1, MaxInstrs: 1}
}

// storeProbe times the store's public operations over 1 000 records.
func (p *prober) storeProbe() error {
	const n = 1000
	return p.in("store", func() error {
		dir, err := p.h.tmp("probe/store")
		if err != nil {
			return err
		}
		st, err := store.OpenWith(dir, store.OpenOptions{Log: quiet})
		if err != nil {
			return err
		}
		c := p.results[0].Counters
		var failed error
		keep := func(err error) {
			if err != nil && failed == nil {
				failed = err
			}
		}
		p.in("put", func() error {
			p.out["store.put_us"] = perCall(n, time.Microsecond, func(i int) { keep(st.Put(probeKey(i), c)) })
			return nil
		})
		keep(st.Close())
		p.in("open", func() error {
			p.out["store.open_ms"] = perCall(3, time.Millisecond, func(int) {
				if st, err = store.OpenWith(dir, store.OpenOptions{Log: quiet}); err != nil {
					keep(err)
					return
				}
				if st.Len() != n {
					keep(fmt.Errorf("reopened store holds %d records, want %d", st.Len(), n))
				}
				keep(st.Close())
			})
			return nil
		})
		if failed != nil {
			return failed
		}
		// A freshly opened store has nothing in memory: a hit is a file
		// read and a checksum.
		if st, err = store.OpenWith(dir, store.OpenOptions{Log: quiet}); err != nil {
			return err
		}
		defer st.Close()
		p.in("get", func() error {
			p.out["store.get_hit_us"] = perCall(n, time.Microsecond, func(i int) {
				if _, ok, err := st.Get(probeKey(i)); err != nil || !ok {
					keep(fmt.Errorf("record %d missing after reopen: %v", i, err))
				}
			})
			p.out["store.get_miss_us"] = perCall(n, time.Microsecond, func(i int) {
				if _, ok, _ := st.Get(probeKey(n + i)); ok {
					keep(fmt.Errorf("record %d exists", n+i))
				}
			})
			return nil
		})
		p.in("codec", func() error {
			var rec []byte
			p.out["store.encode_us"] = perCall(n, time.Microsecond, func(i int) {
				rec, err = store.EncodeCounters(probeKey(i), c)
				keep(err)
			})
			p.out["store.decode_us"] = perCall(n, time.Microsecond, func(int) {
				_, _, err := store.DecodeCounters(rec)
				keep(err)
			})
			return nil
		})
		return failed
	})
}

func (p *prober) reportProbe() error {
	return p.in("report", func() error {
		const n = 500
		t := report.Figure3(p.results)
		p.out["report.figure_build_us"] = perBatch(8, n, func() { report.Figure3(p.results) }) / 1e3
		var failed error
		p.out["report.json_us"] = perCall(n, time.Microsecond, func(int) {
			if _, err := t.JSON(); err != nil {
				failed = err
			}
		})
		p.out["report.csv_us"] = perCall(n, time.Microsecond, func(int) { t.CSV() })
		return failed
	})
}

// probeBackend answers the in-process serve probes from the counters and
// cluster stats the earlier probes computed, so that server is warm
// without a second sweep. A Store call means it had to compute something
// the probes did not hand it.
type probeBackend struct {
	counters map[sweep.Key]*uarch.Counters
	stats    map[workloads.StatsKey]*workloads.Stats
	mu       sync.Mutex
	computed int
}

func (b *probeBackend) Load(_ context.Context, k sweep.Key) (*uarch.Counters, bool) {
	c, ok := b.counters[k]
	return c, ok
}

func (b *probeBackend) Store(context.Context, sweep.Key, *uarch.Counters) {
	b.mu.Lock()
	b.computed++
	b.mu.Unlock()
}

func (b *probeBackend) LoadStats(_ context.Context, k workloads.StatsKey) (*workloads.Stats, bool) {
	st, ok := b.stats[k]
	return st, ok
}

func (b *probeBackend) StoreStats(context.Context, workloads.StatsKey, *workloads.Stats) {
	b.mu.Lock()
	b.computed++
	b.mu.Unlock()
}

func serveOnce(h http.Handler, method, target string, body []byte, header ...string) *httptest.ResponseRecorder {
	var rd io.Reader // stays a nil interface for a request without a body
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// serveProbe drives serve.Handler() in process — the whole middleware
// stack with no network — and digests all 55 read bodies at the shipped
// options.
func (p *prober) serveProbe() error {
	return p.in("serve", func() error {
		cfg := p.opts.CoreConfig()
		be := &probeBackend{counters: map[sweep.Key]*uarch.Counters{}, stats: p.stats}
		for _, r := range p.results {
			be.counters[sweep.Key{Name: r.Workload.Name, Profile: r.Workload.Profile,
				ConfigFP: cfg.Fingerprint(), MaxInstrs: p.opts.Warmup + p.opts.Instrs}] = r.Counters
		}
		srv := serve.New(serve.Config{Options: p.opts, Backend: be, Cluster: be, Logger: quiet})
		defer srv.Close()
		h := srv.Handler()

		paths := readPaths()
		bodies := make([][]byte, len(paths))
		for i, path := range paths {
			rec := serveOnce(h, http.MethodGet, path, nil)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("probe server %s answered %d", path, rec.Code)
			}
			bodies[i] = rec.Body.Bytes()
		}
		if be.computed > 0 {
			p.problem("serve probe: the in-process server computed %d results the probes had not handed it", be.computed)
		}
		digest := digest48(bodies...)
		if prev, ok := p.out["report.body_digest48"]; ok && prev != digest {
			p.problem("report.body_digest48: the oracle's bodies digest to %.0f, the probe server's to %.0f", prev, digest)
		}
		p.out["report.body_digest48"] = digest

		const n = 1000
		var failed error
		expect := func(rec *httptest.ResponseRecorder, want int) {
			if rec.Code != want && failed == nil {
				failed = fmt.Errorf("serve probe: status %d, want %d: %.120s", rec.Code, want, rec.Body.String())
			}
		}
		fig := "/v1/figures/3"
		etag := serveOnce(h, http.MethodGet, fig, nil).Header().Get("Etag")
		w0 := p.results[0].Workload
		job := newJobSpec(0, p.opts.Warmup+p.opts.Instrs)
		key := sweep.Key{Name: w0.Name, Profile: w0.Profile, ConfigFP: job.configFP, MaxInstrs: job.maxInstrs}
		jobOp, err := counterJob(0, "", key, job.warmup, "")
		if err != nil {
			return err
		}
		p.in("handler", func() error {
			p.out["serve.handler_figure_us"] = perCall(n, time.Microsecond, func(int) {
				expect(serveOnce(h, http.MethodGet, fig, nil), http.StatusOK)
			})
			p.out["serve.handler_counters_us"] = perCall(n, time.Microsecond, func(int) {
				expect(serveOnce(h, http.MethodGet, paths[len(paths)-1], nil), http.StatusOK)
			})
			p.out["serve.handler_304_us"] = perCall(n, time.Microsecond, func(int) {
				expect(serveOnce(h, http.MethodGet, fig, nil, "If-None-Match", etag), http.StatusNotModified)
			})
			p.out["serve.handler_job_hit_us"] = perCall(n, time.Microsecond, func(int) {
				expect(serveOnce(h, http.MethodPost, jobOp.url, jobOp.body), http.StatusOK)
			})
			return nil
		})
		if failed != nil {
			return failed
		}

		// Auth overhead: the same request against a keyed and an anonymous
		// server, interleaved call by call in one process, so drift hits
		// both sides alike.
		keys := filepath.Join(p.h.tmpDir, "probe-keys.json")
		data, err := json.Marshal(map[string]any{"keys": []tenant.KeyConfig{{ID: "bench", Secret: "bench-key"}}})
		if err != nil {
			return err
		}
		if err := os.WriteFile(keys, data, 0o600); err != nil {
			return err
		}
		reg, err := tenant.Open(keys, quiet)
		if err != nil {
			return err
		}
		// Two servers that differ in nothing but the keys file.
		anon := serve.New(serve.Config{Options: p.opts, Logger: quiet})
		defer anon.Close()
		keyed := serve.New(serve.Config{Options: p.opts, Tenants: reg, Logger: quiet})
		defer keyed.Close()
		ah, kh := anon.Handler(), keyed.Handler()
		return p.in("auth", func() error {
			var off, on []float64
			call := func(keyedSide bool) {
				t := time.Now()
				if keyedSide {
					expect(serveOnce(kh, http.MethodGet, "/v1/workloads", nil, "Authorization", "Bearer bench-key"), http.StatusOK)
					on = append(on, float64(time.Since(t).Nanoseconds())/1e3)
				} else {
					expect(serveOnce(ah, http.MethodGet, "/v1/workloads", nil), http.StatusOK)
					off = append(off, float64(time.Since(t).Nanoseconds())/1e3)
				}
			}
			// The first ring's worth of calls fills both trace rings and is
			// dropped; after that the order alternates (ABBA) so neither
			// side always runs on the other's warm cache.
			for i := 0; i < ringSize+n; i++ {
				if i == ringSize {
					off, on = off[:0], on[:0]
				}
				call(i%2 == 0)
				call(i%2 != 0)
			}
			p.out["serve.auth_overhead_us"] = median(on) - median(off)
			req := httptest.NewRequest(http.MethodGet, "/v1/workloads", nil)
			req.Header.Set("Authorization", "Bearer bench-key")
			p.out["tenant.authenticate_ns"] = perBatch(8, 500, func() {
				if _, err := reg.Authenticate(req); err != nil && failed == nil {
					failed = err
				}
			})
			return failed
		})
	})
}

// plumbing probes the two helpers every request crosses.
func (p *prober) plumbing() {
	p.in("obs", func() error {
		rec := obs.NewRecorder(0)
		p.out["obs.trace_ns"] = perBatch(8, 500, func() {
			tr := rec.StartTrace("GET /probe", "")
			ctx := obs.With(context.Background(), tr)
			for i := 0; i < 4; i++ {
				obs.Start(ctx, "phase").End()
			}
			tr.Finish()
		})
		return nil
	})
	p.in("memo", func() error {
		m := memo.New[int, int]()
		m.Do(1, func() (int, error) { return 1, nil })
		p.out["memo.hit_ns"] = perBatch(8, 5000, func() { m.Do(1, func() (int, error) { return 1, nil }) })
		return nil
	})
}
