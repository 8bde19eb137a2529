package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"dcbench/internal/replica"
	"dcbench/internal/report"
	"dcbench/internal/store"
	"dcbench/internal/workloads"
)

// This file is the probes that need real processes: one client, one request
// at a time, so a difference of two medians is the cost of the hop or the
// lifecycle in between and not of queueing. It also runs the whole probe
// pass of a traced invocation and writes the trace file.

// tracedLayers completes a traced run: span metrics from the assembled ops,
// every layer probe, and the trace file.
func (h *harness) tracedLayers(name string, m *measured) error {
	for k, v := range spanMetrics(m.opSpans) {
		m.layer[k] = v
	}
	m.layer["harness.build_s"] = h.build.Seconds()
	p := &prober{h: h, out: m.layer, t0: time.Now(), opts: report.DefaultOptions(), problem: m.problem}
	p.structures()
	p.plumbing()
	for _, step := range []func() error{p.instructions, p.fidelity, p.sweeps, p.cluster, p.storeProbe,
		p.reportProbe, p.serveProbe, p.jobsProbe, p.dispatchProbe, p.replicaProbe} {
		if err := step(); err != nil {
			return fmt.Errorf("layer probes: %w", err)
		}
	}

	tf := traceFile{Workload: name, Seed: h.seed, Ops: len(m.opSpans)}
	nest(p.spans)
	for _, spans := range append(m.opSpans, p.spans) {
		offset := len(tf.Spans)
		for _, s := range spans {
			s.ID += offset
			if s.Parent != 0 {
				s.Parent += offset
			}
			tf.Spans = append(tf.Spans, s)
		}
	}
	path := filepath.Join(h.outDir, "trace_"+name+".json")
	if err := writeTraceFile(path, tf); err != nil {
		return err
	}
	fmt.Printf("\ntrace: %d ops and %d probe spans → %s\n", len(m.opSpans), len(p.spans), path)
	return nil
}

// serial sends ops first..first+n one at a time from one client; any
// failure is an error.
func serial(first, n int, gen func(i int) *op, verify func(*op, int, http.Header, []byte) error) error {
	p := closedLoop(loopSpec{clients: 1, first: first, maxOps: n, gen: gen, verify: verify})
	if p.failed > 0 {
		return fmt.Errorf("%d of %d probe requests failed: %v", p.failed, p.attempted, p.errs)
	}
	return nil
}

// handlerTimes maps the trace ids of the newest limit traces in each
// server's ring to the time that server spent on them.
func handlerTimes(limit int, servers ...*server) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, s := range servers {
		traces, err := fetchTraces(s, limit)
		if err != nil {
			return nil, err
		}
		for _, td := range traces {
			out[td.ID] = td.DurMS
		}
	}
	return out, nil
}

// overhead sends ops first..first+n one at a time, each under its own
// trace id, and returns the median of (client-observed latency − the time
// the answering server's handler took): what everything between the caller
// and the process that did the work costs. Subtracting per request, not
// median from median, keeps the work's own variance out of the result.
func overhead(tag string, first, n int, gen func(i int) *op, verify func(*op, int, http.Header, []byte) error, answering ...*server) (float64, error) {
	p := closedLoop(loopSpec{clients: 1, first: first, maxOps: n, gen: gen, verify: verify,
		traced: true, tag: tag, keepTraces: n})
	if p.failed > 0 {
		return 0, fmt.Errorf("%d of %d probe requests failed: %v", p.failed, p.attempted, p.errs)
	}
	handled, err := handlerTimes(ringSize, answering...)
	if err != nil {
		return 0, err
	}
	diffs := make([]float64, 0, n)
	for _, tr := range p.traces {
		dur, ok := handled[tr.ID]
		if !ok {
			return 0, fmt.Errorf("no server trace for %s", tr.ID)
		}
		diffs = append(diffs, ms(tr.Replied.Sub(tr.Start))-dur)
	}
	return median(diffs), nil
}

// probeSeed keeps probe job keys away from every workload's.
const probeSeed = 0x70726f6265

// dispatchProbe measures the dispatch hop on a front-end over two workers:
// the overhead of a request sent through the front-end minus the overhead
// of one sent straight to a worker.
func (p *prober) dispatchProbe() error {
	return p.in("dispatch", func() error {
		servers, err := p.h.jobTopology("probe", true, true)
		if err != nil {
			return err
		}
		defer stopServers(servers)
		workers := servers[:2]
		w1, w2, fe := servers[0].base(), servers[1].base(), servers[2].base()
		js := newJobSpec(probeSeed, shortJobInstrs)
		next := 0 // every pass below takes fresh keys from here
		fresh := func(n int) int { next += n; return next - n }
		jobAt := func(base string) func(i int) *op { return func(i int) *op { return js.op(i, base) } }

		// Warm every process first.
		for _, base := range []string{fe, w1, w2} {
			if err := serial(fresh(4), 4, jobAt(base), verifyCounters); err != nil {
				return err
			}
		}

		const n = 40
		if err := p.in("hop", func() error {
			via, err := overhead("via", fresh(n), n, jobAt(fe), verifyCounters, workers...)
			if err != nil {
				return err
			}
			direct, err := overhead("direct", fresh(n), n, jobAt(w1), verifyCounters, workers...)
			if err != nil {
				return err
			}
			p.out["dispatch.hop_ms"] = via - direct
			return nil
		}); err != nil {
			return err
		}

		if err := p.in("warm_hop", func() error {
			// Both workers compute the keys first, so whichever owns a key
			// already holds it when the front-end asks.
			from := fresh(n)
			for _, base := range []string{w1, w2} {
				if err := serial(from, n, jobAt(base), verifyCounters); err != nil {
					return err
				}
			}
			direct, err := overhead("warm-direct", from, n, jobAt(w1), verifyCounters, workers...)
			if err != nil {
				return err
			}
			via, err := overhead("warm-via", from, n, jobAt(fe), verifyCounters, workers...)
			if err != nil {
				return err
			}
			p.out["dispatch.warm_hop_ms"] = via - direct
			return nil
		}); err != nil {
			return err
		}

		return p.in("cluster_hop", func() error {
			// The 33 cells of the cluster matrix at a tenth of the shipped
			// scale, once through the front-end and once straight to a
			// worker under another seed.
			var cells []workloads.StatsKey
			for _, w := range workloads.All() {
				for _, s := range slaveCounts {
					cells = append(cells, workloads.StatsKey{Workload: w.Name, Slaves: s, Scale: p.opts.Scale / 10})
				}
			}
			cell := func(seed uint64, base string) func(i int) *op {
				return func(i int) *op {
					k := cells[i]
					k.Seed = seed
					o, err := clusterJob(i, base, k)
					if err != nil {
						panic(err) // scalars cannot fail to marshal
					}
					return o
				}
			}
			via, err := overhead("cell-via", 0, len(cells), cell(probeSeed, fe), verifyCluster, workers...)
			if err != nil {
				return err
			}
			direct, err := overhead("cell-direct", 0, len(cells), cell(probeSeed+1, w1), verifyCluster, workers...)
			if err != nil {
				return err
			}
			p.out["dispatch.cluster_hop_ms"] = via - direct
			return nil
		})
	})
}

// jobsProbe measures what the async lifecycle (202, poll to done, fetch
// the result) costs over a blocking request: each side's client-observed
// latency minus the time the server itself attributes to the job.
func (p *prober) jobsProbe() error {
	return p.in("jobs", func() error {
		servers, err := p.h.jobTopology("probe", false, true)
		if err != nil {
			return err
		}
		defer stopServers(servers)
		base := servers[0].base()
		js := newJobSpec(probeSeed+3, shortJobInstrs)
		gen := func(i int) *op { return js.op(i, base) }
		const n = 40
		if err := serial(2*n, 4, gen, verifyCounters); err != nil {
			return err
		}
		return p.in("async", func() error {
			blocking, err := overhead("blocking", 0, n, gen, verifyCounters, servers...)
			if err != nil {
				return err
			}
			c := &client{}
			defer c.close()
			async := make([]float64, n)
			for i := range async {
				id, lat, err := asyncJob(c, js, n+i, base)
				if err != nil {
					return err
				}
				// Every poll leaves a trace of its own, so the job's is
				// read back at once, while it is still among the newest.
				handled, err := handlerTimes(8, servers...)
				if err != nil {
					return err
				}
				dur, ok := handled[id]
				if !ok {
					return fmt.Errorf("no server trace for async job %s", id)
				}
				async[i] = lat - dur
			}
			p.out["jobs.async_overhead_ms"] = median(async) - blocking
			return nil
		})
	})
}

// asyncJob submits one job with ?wait=false, polls it to done and fetches
// its result, returning the job's id (which is also its trace id) and the
// whole lifecycle's client-observed latency in ms.
func asyncJob(c *client, js jobSpec, i int, base string) (id string, lat float64, err error) {
	submit, err := counterJob(i, base, js.key(i), js.warmup, "?wait=false")
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	status, _, body, err := c.do(submit, "")
	if err != nil || status != http.StatusAccepted {
		return "", 0, fmt.Errorf("async submit: status %d: %v", status, err)
	}
	var snap struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		return "", 0, err
	}
	poll := &op{method: http.MethodGet, url: base + "/v1/jobs/" + snap.ID}
	for snap.State != "done" {
		if snap.State == "failed" || snap.State == "cancelled" || time.Since(start) > 10*time.Second {
			return "", 0, fmt.Errorf("async job %s ended %q", snap.ID, snap.State)
		}
		if _, _, body, err = c.do(poll, ""); err != nil {
			return "", 0, err
		}
		if err := json.Unmarshal(body, &snap); err != nil {
			return "", 0, err
		}
	}
	fetch := &op{method: http.MethodGet, url: poll.url + "/result", want: js.key(i)}
	status, hd, body, err := c.do(fetch, "")
	if err != nil {
		return "", 0, err
	}
	lat = ms(time.Since(start))
	return snap.ID, lat, verifyCounters(fetch, status, hd, body)
}

// replicaRecords is how many records the convergence probe pulls.
const replicaRecords = 100

// replicaProbe measures the replication plane, which none of the four
// workloads turns on: how long a fresh record takes to become visible on a
// peer, and how long an empty node takes to pull a hundred records.
func (p *prober) replicaProbe() error {
	return p.in("replica", func() error {
		logDir := filepath.Join(p.h.outDir, "logs", "probe")
		var addrs, dirs [2]string
		for i, role := range []string{"ra", "rb"} {
			var err error
			if addrs[i], err = freeAddr(); err != nil {
				return err
			}
			if dirs[i], err = p.h.tmp("probe/" + role); err != nil {
				return err
			}
		}
		// Node A starts with a hundred records on disk.
		st, err := store.OpenWith(dirs[0], store.OpenOptions{Log: quiet})
		if err != nil {
			return err
		}
		for i := 0; i < replicaRecords; i++ {
			if err := st.Put(probeKey(i), p.results[0].Counters); err != nil {
				return err
			}
		}
		if err := st.Close(); err != nil {
			return err
		}
		a, err := spawnAt(p.h.bin, logDir, "ra", addrs[0], dirs[0], "-replicas", addrs[1])
		if err != nil {
			return err
		}
		defer a.stop()
		b, err := spawnAt(p.h.bin, logDir, "rb", addrs[1], dirs[1], "-replicas", addrs[0])
		if err != nil {
			return err
		}
		defer b.stop()

		if err := p.in("push_visible", func() error {
			js := newJobSpec(probeSeed+2, shortJobInstrs)
			c := &client{}
			defer c.close()
			var waits []float64
			for i := 0; i < 8; i++ {
				o := js.op(i, a.base())
				status, hd, body, err := c.do(o, "")
				if err == nil {
					err = verifyCounters(o, status, hd, body)
				}
				if err != nil {
					return err
				}
				replied := time.Now()
				for {
					prom, err := b.scrape()
					if err != nil {
						return err
					}
					if prom["dcserved_store_adopted_total"] >= float64(i+1) {
						break
					}
					if time.Since(replied) > 5*time.Second {
						return fmt.Errorf("record %d never became visible on the peer\n%s", i, a.logTail(5))
					}
				}
				waits = append(waits, ms(time.Since(replied)))
			}
			sort.Float64s(waits)
			p.out["replica.push_visible_ms"] = median(waits)
			return nil
		}); err != nil {
			return err
		}

		return p.in("converge", func() error {
			dir, err := p.h.tmp("probe/rc")
			if err != nil {
				return err
			}
			empty, err := store.OpenWith(dir, store.OpenOptions{Log: quiet})
			if err != nil {
				return err
			}
			defer empty.Close()
			r, err := replica.New(replica.Options{Peers: []string{a.addr}, Interval: -1}, empty, quiet)
			if err != nil {
				return err
			}
			t := time.Now()
			r.RunAntiEntropy(context.Background())
			p.out["replica.converge_ms"] = ms(time.Since(t))
			if empty.Len() < replicaRecords {
				return fmt.Errorf("anti-entropy pulled %d records, want at least %d", empty.Len(), replicaRecords)
			}
			return nil
		})
	})
}
