package main

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"strings"
)

// This file turns what a workload measured into the named metrics.

// tailPercentile is the end-to-end tail: the highest percentile with at
// least ten samples beyond it on every request-driven workload at the
// contract's ten-second runs (cold_jobs completes some 120 jobs). The
// traced run prints p95 and p99 beside it.
const tailPercentile = 90

// endToEndMetrics derives every end-to-end metric from one workload's
// untraced measurements.
func (m *measured) endToEndMetrics() map[string]float64 {
	ops := float64(m.main.verified())
	p50, _ := percentile(m.units, 50)
	tail, _ := percentile(m.units, tailPercentile)
	out := map[string]float64{
		"setup_s":       median(m.setups),
		"p50_ms":        p50,
		"p90_ms":        tail,
		"server_rss_mb": m.rssMiB,
	}
	if ops > 0 && m.wall > 0 {
		out["ops_per_s"] = ops / m.wall.Seconds()
		out["server_cpu_ms_per_op"] = ms(m.cpu) / ops
	}
	return out
}

// attempted and failed count every verified operation of the run: the
// measured phase, the traced stretch, the restart passes and the job
// oracle's samples.
func (m *measured) attempted() int {
	return m.main.attempted + m.tracedRun.attempted + m.extra.attempted
}

func (m *measured) failed() int {
	return m.main.failed + m.tracedRun.failed + m.extra.failed
}

func (m *measured) failures() []string {
	return slices.Concat(m.main.errs, m.tracedRun.errs, m.extra.errs)
}

// clientLayers is the client's own split of its samples.
func (m *measured) clientLayers() {
	m.layer["client.p95_ms"], _ = percentile(m.units, 95)
	m.layer["client.p99_ms"], _ = percentile(m.units, 99)
	m.layer["client.restart_all_ms"] = median(m.restarts)
	m.layer["client.failed_share"] = float64(m.failed()) / float64(max(m.attempted(), 1))
	for class, name := range map[string]string{
		"200": "serve.read200_p50_ms", "304": "serve.read304_p50_ms", "csv": "serve.csv_p50_ms"} {
		v, _ := percentile(m.main.latencies(func(c string) bool { return c == class }), 50)
		m.layer[name] = v
	}
	if m.tracedWall > 0 && m.wall > 0 {
		plain := float64(m.main.verified()) / m.wall.Seconds()
		traced := float64(m.tracedRun.verified()) / m.tracedWall.Seconds()
		if plain > 0 {
			m.layer["harness.trace_overhead_pct"] = 100 * (plain - traced) / plain
		}
	}
	if total := m.harnessCPU + m.cpu; total > 0 {
		m.layer["harness.client_cpu_share"] = float64(m.harnessCPU) / float64(total)
	}
}

// scrapeLayers reads the per-layer counters out of the /metrics deltas of
// a window whose front door is the last server.
func (m *measured) scrapeLayers(w *window) {
	fi := len(w.before) - 1
	front := func(name string) float64 { return delta(w.before[fi], w.after[fi], name) }
	hits, captures := w.sum("dcserved_trace_cache_hits_total"), w.sum("dcserved_trace_cache_captures_total")
	if hits+captures > 0 {
		m.layer["tracecache.useful_ratio"] = hits / (hits + captures)
	}
	m.layer["store.hits"] = w.sum("dcserved_store_hits_total")
	m.layer["store.misses"] = w.sum("dcserved_store_misses_total")
	m.layer["store.writes"] = w.sum("dcserved_store_writes_total")
	m.layer["serve.requests"] = requestsDelta(w.before[fi], w.after[fi])
	m.layer["serve.coalesced"] = w.sum("dcserved_coalesced_total")
	m.layer["serve.errors"] = w.sum("dcserved_errors_total")
	m.layer["jobs.shed"] = w.sum("dcserved_jobs_shed_total")
	m.layer["jobs.joined"] = w.sum("dcserved_jobs_joined_total")
	m.layer["dispatch.dispatched"] = front("dcserved_dispatch_dispatched_total")
	m.layer["dispatch.remote_hits"] = front("dcserved_dispatch_remote_hits_total")
	m.layer["dispatch.fallbacks"] = front("dcserved_dispatch_fallbacks_total")
	m.layer["dispatch.errors"] = front("dcserved_dispatch_errors_total")
	if d := m.layer["dispatch.dispatched"]; d > 0 {
		m.layer["dispatch.remote_hit_ratio"] = m.layer["dispatch.remote_hits"] / d
	}
	// The server's own view of the same requests. Its histogram's finest
	// bucket is 0.5 ms — wider than a whole warm read — so the mean
	// (_sum/_count) is the only server-side latency that resolves.
	var sum, count float64
	for name := range w.after[fi].prom {
		switch {
		case strings.HasPrefix(name, "dcserved_request_duration_seconds_sum{"):
			sum += front(name)
		case strings.HasPrefix(name, "dcserved_request_duration_seconds_count{"):
			count += front(name)
		}
	}
	if count > 0 {
		m.layer["serve.server_mean_ms"] = 1000 * sum / count
		m.layer["serve.wire_overhead_ms"] = mean(w.ops.latencies(nil)) - 1000*sum/count
	}
}

// digest48 folds byte strings into the first 48 bits of their sha256: an
// identity that repeats exactly and still fits a JSON number.
func digest48(parts ...[]byte) float64 {
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	sum := h.Sum(nil)
	return float64(binary.BigEndian.Uint64(append([]byte{0, 0}, sum[:6]...)))
}

// digest48 of an oracle is the digest of its bodies in path order.
func (o *oracle) digest48(paths []string) float64 {
	parts := make([][]byte, len(paths))
	for i, p := range paths {
		parts[i] = o.pages[p].body
	}
	return digest48(parts...)
}
