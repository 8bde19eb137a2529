package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"dcbench/internal/obs"
	"dcbench/internal/report"
)

// This file is the four workloads. Each one spawns the real binary with the
// shipped default flags (only -addr, -store, -workers and -seed are ever
// passed, so a changed default shows as a changed number), drives it from
// a closed loop, verifies every response, reconciles its own counts with
// the servers' /metrics, and restarts the servers on their stores to prove
// that nothing is computed twice.

// harness is one invocation's fixed context.
type harness struct {
	outDir  string // bench/out
	tmpDir  string // bench/out/tmp/<pid>: store directories, removed on exit
	bin     string // the built dcserved
	build   time.Duration
	seed    uint64
	seconds time.Duration
	traced  bool
	clients int
}

// tmp returns a fresh, empty directory for one store.
func (h *harness) tmp(name string) (string, error) {
	dir := filepath.Join(h.tmpDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(filepath.Dir(dir), 0o755)
}

func (h *harness) spawn(workload, role, storeDir string, extra ...string) (*server, error) {
	logDir := filepath.Join(h.outDir, "logs", workload)
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	return spawn(h.bin, logDir, role, storeDir, extra...)
}

// measured is what a workload hands back; the end-to-end metrics are
// derived from it in one place (see endToEndMetrics).
type measured struct {
	setups []float64 // seconds, one per set-up performed
	// main holds the untraced measured ops; units are the latencies, in
	// ms, of the workload's unit of work — one read, one job, or one cold
	// pass of all figures.
	main     *phase
	units    []float64
	wall     time.Duration // measured-phase wall time
	cpu      time.Duration // Σ server (utime+stime) across the measured phase
	rssMiB   float64       // Σ VmHWM of the server processes
	restarts []float64     // ms, exec → last verified body, one per restart pass
	extra    *phase        // verified ops outside the measured phase (restart passes)
	problems []string      // reconciliation failures: any entry fails the run

	harnessCPU time.Duration
	tracedRun  *phase             // traced ops (empty unless the invocation is traced)
	tracedWall time.Duration      // wall time of the traced phase
	opSpans    [][]*span          // assembled traces, one slice per retained op
	layer      map[string]float64 // scrape- and client-derived per-layer values
}

func newMeasured() *measured {
	return &measured{main: &phase{}, extra: &phase{}, tracedRun: &phase{}, layer: map[string]float64{}}
}

func (m *measured) problem(format string, args ...any) {
	m.problems = append(m.problems, fmt.Sprintf(format, args...))
}

// check records a reconciliation failure unless got equals want.
func (m *measured) check(what string, got, want float64) {
	if got != want {
		m.problem("%s: servers say %g, harness expects %g", what, got, want)
	}
}

// selfCPU is the harness's own CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// window is one measured stretch over a fixed set of servers: the ops, and
// the servers' state on either side.
type window struct {
	before, after []snapshot
	ops           *phase // untraced and traced ops together, for reconciliation
}

func snapshots(servers []*server) ([]snapshot, error) {
	out := make([]snapshot, len(servers))
	for i, s := range servers {
		var err error
		if out[i], err = s.snapshot(); err != nil {
			return nil, fmt.Errorf("%s: %w", s.role, err)
		}
	}
	return out, nil
}

// sum adds one family's delta over all servers.
func (w *window) sum(name string) float64 {
	t := 0.0
	for i := range w.before {
		t += delta(w.before[i], w.after[i], name)
	}
	return t
}

// measure runs the workload's measured phase against servers: the whole of
// -seconds untraced, or — in a traced invocation — half of it untraced
// followed by a traced stretch whose server spans are collected from every
// process afterwards.
func (h *harness) measure(m *measured, servers []*server, spec loopSpec) (*window, error) {
	w := &window{ops: &phase{}}
	var err error
	if w.before, err = snapshots(servers); err != nil {
		return nil, err
	}
	cpu0 := selfCPU()
	spec.clients = h.clients
	spec.dur = h.seconds
	if h.traced {
		spec.dur = h.seconds / 2
	}
	m.main = closedLoop(spec)
	m.wall = m.main.wall
	w.ops.merge(m.main)
	if h.traced {
		spec.first += m.main.attempted + h.clients // past every index the first stretch claimed
		spec.traced, spec.keepTraces = true, maxTracedOps
		if spec.dur > 5*time.Second {
			spec.dur = 5 * time.Second
		}
		m.tracedRun = closedLoop(spec)
		m.tracedWall = m.tracedRun.wall
		w.ops.merge(m.tracedRun)
	}
	m.harnessCPU = selfCPU() - cpu0
	if w.after, err = snapshots(servers); err != nil {
		return nil, err
	}
	for i := range servers {
		m.cpu += w.after[i].cpu - w.before[i].cpu
		rss, err := servers[i].rssMiB()
		if err != nil {
			return nil, err
		}
		m.rssMiB += rss
	}
	if h.traced {
		if err := m.collectSpans(servers, m.tracedRun.traces); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// maxTracedOps keeps the retained ops inside the servers' trace rings.
const maxTracedOps = ringSize - 112

// collectSpans reads every server's trace ring and assembles the retained
// ops.
func (m *measured) collectSpans(servers []*server, ops []opTrace) error {
	byProc := make(map[string][]obs.TraceData)
	for _, s := range servers {
		traces, err := fetchTraces(s, ringSize)
		if err != nil {
			return err
		}
		byProc[s.role] = traces
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].Start.Before(ops[j].Start) })
	for _, o := range ops {
		m.opSpans = append(m.opSpans, assemble(o, byProc))
	}
	return nil
}

// reconcileCommon checks what must hold on every server after any phase:
// no 5xx, no shed job, nothing left in flight.
func (m *measured) reconcileCommon(servers []*server, w *window) {
	for i, s := range servers {
		m.check(s.role+" errors", delta(w.before[i], w.after[i], "dcserved_errors_total"), 0)
		m.check(s.role+" jobs shed", delta(w.before[i], w.after[i], "dcserved_jobs_shed_total"), 0)
		m.check(s.role+" jobs in flight", w.after[i].prom["dcserved_jobs_in_flight"], 0)
	}
}

// requestsDelta is a server's dcserved_requests_total change with the
// harness's own probes (scrapes, health polls, trace reads) taken out.
func requestsDelta(before, after snapshot) float64 {
	return delta(before, after, "dcserved_requests_total") - float64(after.scrapes-before.scrapes)
}

// restartPasses is how many times a workload restarts its servers; the
// metric is the median.
const restartPasses = 5

// --- warm_reads ---

func (h *harness) warmReads() (*measured, error) {
	const name = "warm_reads"
	m := newMeasured()
	paths := readPaths()
	// That server runs the shipped -seed, so the oracle does too and the
	// body digest repeats across benchmark seeds.
	or, err := newOracle(report.DefaultOptions(), paths, h.clients)
	if err != nil {
		return nil, err
	}
	defer or.close()
	m.layer["report.body_digest48"] = or.digest48(paths)

	dir, err := h.tmp(name + "/store")
	if err != nil {
		return nil, err
	}
	setupStart := time.Now()
	srv, err := h.spawn(name, "server", dir)
	if err != nil {
		return nil, err
	}
	defer func() { srv.stop() }()
	base := srv.base()
	m.layer["serve.ready_ms"] = ms(srv.ready)

	// Fill: every URL once, cold. This is the store fill of set-up.
	pullAll := func(s *server) *phase {
		b := s.base()
		return closedLoop(loopSpec{clients: h.clients, maxOps: len(paths), verify: verifyRead,
			gen: func(i int) *op { return or.readOp(i, b, paths[i], false) }})
	}
	if fill := pullAll(srv); fill.failed > 0 {
		return nil, fmt.Errorf("store fill failed: %v\n%s", fill.errs, srv.logTail(10))
	}
	gen := or.mixedReads(h.seed, base, paths)
	closedLoop(loopSpec{clients: h.clients, dur: 300 * time.Millisecond, first: 1 << 30, gen: gen, verify: verifyRead})
	m.setups = []float64{time.Since(setupStart).Seconds()}

	servers := []*server{srv}
	w, err := h.measure(m, servers, loopSpec{gen: gen, verify: verifyRead})
	if err != nil {
		return nil, err
	}
	m.units = m.main.latencies(nil)
	m.reconcileCommon(servers, w)
	m.check("requests", requestsDelta(w.before[0], w.after[0]), float64(w.ops.attempted))
	m.check("store writes", w.sum("dcserved_store_writes_total"), 0)
	m.scrapeLayers(w)

	// Restart on the same store: every body again, nothing re-simulated.
	for i := 0; i < restartPasses; i++ {
		srv.stop()
		if srv, err = h.spawn(name, "server", dir); err != nil {
			return nil, err
		}
		p := pullAll(srv)
		m.restarts = append(m.restarts, ms(time.Since(srv.spawned)))
		m.extra.merge(p)
		after, err := srv.scrape()
		if err != nil {
			return nil, err
		}
		m.check("restart store writes", after["dcserved_store_writes_total"], 0)
	}
	return m, nil
}

// --- cold_jobs and dispatch_jobs ---

// Trace lengths of the two job workloads. cold_jobs runs the shipped
// default length, so per-instruction cost dominates; dispatch_jobs runs
// 40 000 instructions, so the per-job fixed cost does. A front-end
// dispatches every key at its own -warmup, so with shipped flags the short
// jobs keep the default warm-up in their fingerprint and simply end inside
// it (the counters then cover the whole short trace).
const shortJobInstrs = 40_000

func defaultJobInstrs() int64 {
	o := report.DefaultOptions()
	return o.Warmup + o.Instrs
}

// keptBodies remembers the first n job responses so the restart pass and
// the in-process oracle can compare bytes.
type keptBodies struct {
	mu     sync.Mutex
	bodies map[int][]byte
	n      int
}

func (k *keptBodies) wrap(verify func(*op, int, http.Header, []byte) error) func(*op, int, http.Header, []byte) error {
	return func(o *op, status int, h http.Header, body []byte) error {
		if err := verify(o, status, h, body); err != nil {
			return err
		}
		if o.index < k.n {
			k.mu.Lock()
			k.bodies[o.index] = bytes.Clone(body)
			k.mu.Unlock()
		}
		return nil
	}
}

// jobTopology spawns the servers of a job workload: one dcserved, or a
// front-end over two workers, all with stores. Workers come first in the
// returned slice; the front door is last.
func (h *harness) jobTopology(name string, dispatch bool, fresh bool) ([]*server, error) {
	seed := fmt.Sprint(h.seed)
	dirFor := func(role string) (string, error) {
		if fresh {
			return h.tmp(name + "/" + role)
		}
		return filepath.Join(h.tmpDir, name, role), nil
	}
	var servers []*server
	fail := func(err error) ([]*server, error) {
		for _, s := range servers {
			s.stop()
		}
		return nil, err
	}
	if !dispatch {
		dir, err := dirFor("server")
		if err != nil {
			return nil, err
		}
		s, err := h.spawn(name, "server", dir, "-seed", seed)
		if err != nil {
			return nil, err
		}
		return []*server{s}, nil
	}
	for _, role := range []string{"w1", "w2"} {
		dir, err := dirFor(role)
		if err != nil {
			return fail(err)
		}
		s, err := h.spawn(name, role, dir, "-seed", seed)
		if err != nil {
			return fail(err)
		}
		servers = append(servers, s)
	}
	dir, err := dirFor("frontend")
	if err != nil {
		return fail(err)
	}
	fe, err := h.spawn(name, "frontend", dir, "-seed", seed, "-workers", servers[0].addr+","+servers[1].addr)
	if err != nil {
		return fail(err)
	}
	return append(servers, fe), nil
}

func stopServers(servers []*server) {
	for i := len(servers) - 1; i >= 0; i-- { // front door first
		servers[i].stop()
	}
}

// jobSetups is how many times the job workloads set up; set-up is cheap
// there, and setup_s is the median.
const jobSetups = 5

func (h *harness) jobs(name string, dispatch bool) (*measured, error) {
	m := newMeasured()
	instrs := defaultJobInstrs()
	if dispatch {
		instrs = shortJobInstrs
	}
	js := newJobSpec(h.seed, instrs)
	kept := &keptBodies{bodies: map[int][]byte{}, n: 26}

	var servers []*server
	defer func() { stopServers(servers) }()
	for i := 0; i < jobSetups; i++ {
		stopServers(servers)
		setupStart := time.Now()
		var err error
		if servers, err = h.jobTopology(name, dispatch, true); err != nil {
			return nil, err
		}
		base := servers[len(servers)-1].base()
		// Warm-up: two jobs per client, so the core pool, the trace cache
		// and the connections exist before timing. Indices far from the
		// measured range keep the keys distinct.
		warm := closedLoop(loopSpec{clients: h.clients, maxOps: 2 * h.clients, first: 1<<30 + i*1000,
			verify: verifyCounters, gen: func(i int) *op { return js.op(i, base) }})
		if warm.failed > 0 {
			return nil, fmt.Errorf("warm-up failed: %v\n%s", warm.errs, servers[len(servers)-1].logTail(10))
		}
		m.setups = append(m.setups, time.Since(setupStart).Seconds())
	}
	front := servers[len(servers)-1]
	base := front.base()
	m.layer["serve.ready_ms"] = ms(front.ready)

	w, err := h.measure(m, servers, loopSpec{verify: kept.wrap(verifyCounters),
		gen: func(i int) *op { return js.op(i, base) }})
	if err != nil {
		return nil, err
	}
	m.units = m.main.latencies(nil)
	ops := float64(w.ops.attempted)
	m.reconcileCommon(servers, w)
	fi := len(servers) - 1
	m.check("front-door requests", requestsDelta(w.before[fi], w.after[fi]), ops)
	// Every key was cold, so every job is exactly one simulation and one
	// store write where it ran — plus, through a front-end, one
	// write-through at the front door.
	m.check("front-door store writes", delta(w.before[fi], w.after[fi], "dcserved_store_writes_total"), ops)
	if dispatch {
		workers := &window{before: w.before[:fi], after: w.after[:fi]}
		m.check("worker store writes", workers.sum("dcserved_store_writes_total"), ops)
		wreq := 0.0
		for i := 0; i < fi; i++ {
			wreq += requestsDelta(w.before[i], w.after[i])
		}
		m.check("worker requests", wreq, ops)
		m.check("dispatch dispatched", delta(w.before[fi], w.after[fi], "dcserved_dispatch_dispatched_total"), ops)
		m.check("dispatch remote hits", delta(w.before[fi], w.after[fi], "dcserved_dispatch_remote_hits_total"), ops)
		m.check("dispatch fallbacks", delta(w.before[fi], w.after[fi], "dcserved_dispatch_fallbacks_total"), 0)
		m.check("dispatch errors", delta(w.before[fi], w.after[fi], "dcserved_dispatch_errors_total"), 0)
	}
	m.scrapeLayers(w)
	m.layer["client.sim_minstr_per_s"] = float64(m.main.verified()) * float64(instrs) / 1e6 / m.wall.Seconds()

	// The job oracle: a sample of the answers, recomputed in this process.
	sample := 2
	if dispatch {
		sample = kept.n
	}
	for i := 0; i < sample; i++ {
		got, ok := kept.bodies[i]
		if !ok {
			continue
		}
		want, err := simulateRecord(js.key(i), js.warmup)
		if err != nil {
			return nil, err
		}
		m.extra.attempted++
		if !bytes.Equal(got, want) {
			m.extra.failed++
			m.extra.errs = append(m.extra.errs, fmt.Sprintf("job %d: record differs from the in-process simulation", i))
		}
	}

	// Restart every process on its store and ask for the first keys again:
	// same bytes, no simulation, and — through a front-end — no worker
	// traffic, because the write-through copy answers.
	replay := make([]int, 0, kept.n)
	for i := 0; i < kept.n; i++ {
		if _, ok := kept.bodies[i]; ok {
			replay = append(replay, i)
		}
	}
	sameBytes := func(o *op, status int, hd http.Header, body []byte) error {
		if err := verifyCounters(o, status, hd, body); err != nil {
			return err
		}
		if !bytes.Equal(body, kept.bodies[o.index]) {
			return fmt.Errorf("job %d: record changed across the restart", o.index)
		}
		return nil
	}
	for i := 0; i < restartPasses; i++ {
		stopServers(servers)
		exec := time.Now()
		if servers, err = h.jobTopology(name, dispatch, false); err != nil {
			return nil, err
		}
		b := servers[len(servers)-1].base()
		p := closedLoop(loopSpec{clients: h.clients, maxOps: len(replay), verify: sameBytes,
			gen: func(i int) *op { return js.op(replay[i], b) }})
		m.restarts = append(m.restarts, ms(time.Since(exec)))
		m.extra.merge(p)
		for j, s := range servers {
			after, err := s.scrape()
			if err != nil {
				return nil, err
			}
			m.check("restart "+s.role+" store writes", after["dcserved_store_writes_total"], 0)
			if dispatch && j < len(servers)-1 {
				m.check("restart "+s.role+" requests", after["dcserved_requests_total"]-float64(s.scrapes), 0)
			}
		}
	}
	return m, nil
}

// --- cold_figures ---

// coldKeys is how many store records one cold pass of the paper's figures
// and tables computes: 26 counter files and 11 apps × {1,4,8} slaves.
const coldKeys = 26 + 33

// figIteration is one loop of cold_figures: a fresh server on an empty
// store pulls everything cold, is interrupted, and a second server on the
// same store pulls everything again.
type figIteration struct {
	ready    time.Duration // exec → ready of the cold server
	cold     *phase
	restart  *phase
	restartT time.Duration // exec → last body of the restart pass
	wall     time.Duration // whole iteration
	cpu      time.Duration // both servers
	rssMiB   float64       // the cold-pass server
}

func (h *harness) figIterate(m *measured, or *oracle, paths []string, traced bool, first int) (*figIteration, error) {
	const name = "cold_figures"
	it := &figIteration{}
	start := time.Now()
	dir, err := h.tmp(name + "/store")
	if err != nil {
		return nil, err
	}
	pass := func(role string, wantWrites float64) (*phase, error) {
		srv, err := h.spawn(name, role, dir, "-seed", fmt.Sprint(h.seed))
		if err != nil {
			return nil, err
		}
		defer srv.stop()
		base := srv.base()
		// Clients pull figures 1-12 and tables 1-3 in paper order from the
		// shared cursor.
		p := closedLoop(loopSpec{clients: h.clients, maxOps: len(paths), first: first, verify: verifyRead,
			traced: traced, keepTraces: maxTracedOps, gen: or.pulls(first, base, paths)})
		elapsed := time.Since(srv.spawned)
		snap, err := srv.snapshot()
		if err != nil {
			return nil, err
		}
		it.cpu += snap.cpu
		m.check(role+" requests", snap.prom["dcserved_requests_total"]-float64(snap.scrapes), float64(p.attempted))
		m.check(role+" store writes", snap.prom["dcserved_store_writes_total"], wantWrites)
		m.check(role+" errors", snap.prom["dcserved_errors_total"], 0)
		if role == "cold" {
			it.ready = srv.ready
			if it.rssMiB, err = srv.rssMiB(); err != nil {
				return nil, err
			}
			m.layer["store.misses"] = snap.prom["dcserved_store_misses_total"]
			m.layer["store.writes"] = snap.prom["dcserved_store_writes_total"]
			m.layer["serve.coalesced"] = snap.prom["dcserved_coalesced_total"]
		} else {
			it.restartT = elapsed
			m.layer["store.hits"] = snap.prom["dcserved_store_hits_total"]
		}
		if traced {
			err = m.collectSpans([]*server{srv}, p.traces)
		}
		return p, err
	}
	if it.cold, err = pass("cold", coldKeys); err != nil {
		return nil, err
	}
	// The restart pass is verified against the same oracle bytes as the
	// cold pass, so its bodies equal the cold bodies.
	if it.restart, err = pass("restart", 0); err != nil {
		return nil, err
	}
	it.wall = time.Since(start)
	return it, nil
}

func (h *harness) coldFigures() (*measured, error) {
	m := newMeasured()
	paths := paperPaths()
	opts := report.DefaultOptions()
	opts.Seed = h.seed
	or, err := newOracle(opts, paths, h.clients)
	if err != nil {
		return nil, err
	}
	defer or.close()

	var rss, colds, readies []float64
	add := func(it *figIteration) {
		m.main.merge(it.cold)
		m.main.merge(it.restart)
		readies = append(readies, ms(it.ready))
		m.units = append(m.units, ms(it.cold.wall))
		m.restarts = append(m.restarts, ms(it.restartT))
		m.wall += it.wall
		m.cpu += it.cpu
		rss = append(rss, it.rssMiB)
		colds = append(colds, it.cold.wall.Seconds())
	}
	// Set-up is one unmeasured iteration: exec → ready on an empty store
	// alone is some 20 ms of disk flushes, and the first pass in a fresh
	// checkout also pays for cold page caches.
	setupStart := time.Now()
	if _, err := h.figIterate(m, or, paths, false, 1<<21); err != nil {
		return nil, err
	}
	m.setups = []float64{time.Since(setupStart).Seconds()}
	cpu0 := selfCPU()
	start := time.Now()
	for n := 0; n == 0 || time.Since(start) < h.seconds && !h.traced; n++ {
		it, err := h.figIterate(m, or, paths, false, n*len(paths))
		if err != nil {
			return nil, err
		}
		add(it)
	}
	m.harnessCPU = selfCPU() - cpu0
	sort.Float64s(m.units)
	m.rssMiB = median(rss)
	m.layer["client.cold_all_s"] = median(colds)
	m.layer["serve.ready_ms"] = median(readies)
	m.layer["serve.requests"] = float64(m.main.attempted)
	if h.traced {
		it, err := h.figIterate(m, or, paths, true, 1<<20)
		if err != nil {
			return nil, err
		}
		m.tracedRun.merge(it.cold)
		m.tracedRun.merge(it.restart)
		m.tracedWall = it.wall
	}
	return m, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
