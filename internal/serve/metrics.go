package serve

import (
	"fmt"
	"net/http"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcbench/internal/sweep"
	"dcbench/internal/tenant"
)

// buildInfo resolves the dcserved_build_info labels once: the Go
// toolchain version and the VCS revision baked in by `go build` (or
// "unknown" outside a checkout, e.g. a test binary).
var buildInfo = sync.OnceValue(func() (bi struct{ GoVersion, Revision string }) {
	bi.GoVersion, bi.Revision = "unknown", "unknown"
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bi
	}
	bi.GoVersion = info.GoVersion
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			bi.Revision = s.Value
		}
	}
	return bi
})

// handleMetrics renders the Prometheus text exposition (version 0.0.4) of
// the server's request counters and, when a result store is wired in, its
// store-level counters. The format is hand-rolled on purpose: four gauge/
// counter families do not justify a client-library dependency, and the
// golden test pins the output so the surface cannot drift silently.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	bi := buildInfo()
	fmt.Fprintf(&b, "# HELP dcserved_build_info Build metadata; the value is always 1.\n"+
		"# TYPE dcserved_build_info gauge\ndcserved_build_info{goversion=%q,revision=%q} 1\n",
		bi.GoVersion, bi.Revision)
	st := s.Stats()
	writeMetric(&b, "dcserved_requests_total", "counter",
		"HTTP requests handled.", float64(st.Requests))
	writeMetric(&b, "dcserved_coalesced_total", "counter",
		"Requests that joined an in-flight render instead of starting one.", float64(st.Coalesced))
	writeMetric(&b, "dcserved_errors_total", "counter",
		"Requests answered with a 5xx status.", float64(st.Errors))
	writeMetric(&b, "dcserved_uptime_seconds", "gauge",
		"Seconds since the server started.", time.Since(s.started).Seconds())
	js := s.JobStats()
	writeMetric(&b, "dcserved_jobs_in_flight", "gauge",
		"Compute jobs (counters + cluster) currently running.", float64(js.InFlight))
	writeMetric(&b, "dcserved_jobs_max_inflight", "gauge",
		"Admission-control bound on concurrent compute jobs; 0 = unlimited.", float64(js.MaxInflight))
	writeMetric(&b, "dcserved_jobs_shed_total", "counter",
		"Compute jobs shed with 429 because the worker was saturated.", float64(js.Shed))
	writeMetric(&b, "dcserved_jobs_queued", "gauge",
		"Async jobs accepted and waiting for an admission slot.", float64(js.Queued))
	writeMetric(&b, "dcserved_jobs_joined_total", "counter",
		"Saturated requests that joined an in-flight job instead of shedding.", float64(js.Joined))
	writeMetric(&b, "dcserved_jobs_cancelled_total", "counter",
		"Jobs cancelled by DELETE /v1/jobs/{id}.", float64(js.Cancelled))
	s.reqHist.WriteProm(&b, "dcserved_request_duration_seconds", "endpoint",
		"HTTP request latency by mux pattern; probe endpoints are not sampled.")
	s.jobHist.WriteProm(&b, "dcserved_job_duration_seconds", "kind",
		"Compute job latency by job kind, admission to response.")
	if bs, ok := s.backendStats(); ok {
		writeMetric(&b, "dcserved_store_records", "gauge",
			"Records currently in the result store.", float64(bs.Records))
		writeMetric(&b, "dcserved_store_bytes", "gauge",
			"Total record bytes in the result store.", float64(bs.Bytes))
		writeMetric(&b, "dcserved_store_shards", "gauge",
			"Hash shards in the result store.", float64(bs.Shards))
		writeMetric(&b, "dcserved_store_hits_total", "counter",
			"Store reads that returned a valid record.", float64(bs.Hits))
		writeMetric(&b, "dcserved_store_misses_total", "counter",
			"Store reads that found no usable record.", float64(bs.Misses))
		writeMetric(&b, "dcserved_store_writes_total", "counter",
			"Records written to the store.", float64(bs.Writes))
		writeMetric(&b, "dcserved_store_evictions_total", "counter",
			"Records removed by the eviction policy.", float64(bs.Evictions))
		writeMetric(&b, "dcserved_store_corrupt_total", "counter",
			"Corrupt records detected and skipped.", float64(bs.Corrupt))
		if d := bs.Dispatch; d != nil {
			writeMetric(&b, "dcserved_dispatch_workers", "gauge",
				"Configured sweep workers.", float64(d.Workers))
			writeMetric(&b, "dcserved_dispatch_healthy_workers", "gauge",
				"Workers whose circuit is currently closed.", float64(d.Healthy))
			writeMetric(&b, "dcserved_dispatch_in_flight", "gauge",
				"Dispatched jobs currently awaiting a worker (all kinds).", float64(d.InFlight))
			writeMetric(&b, "dcserved_dispatch_dispatched_total", "counter",
				"Job misses forwarded to the worker set (all kinds).", float64(d.Dispatched))
			writeMetric(&b, "dcserved_dispatch_remote_hits_total", "counter",
				"Dispatched jobs answered by a worker (all kinds).", float64(d.RemoteHits))
			writeMetric(&b, "dcserved_dispatch_fallbacks_total", "counter",
				"Dispatched jobs that fell back to local simulation (all kinds).", float64(d.Fallbacks))
			writeMetric(&b, "dcserved_dispatch_errors_total", "counter",
				"Failed worker attempts (a fetch may retry past these).", float64(d.Errors))
			writeMetric(&b, "dcserved_dispatch_shed_total", "counter",
				"Dispatch attempts answered 429 by a saturated worker.", float64(d.Shed))
			writeKindMetric(&b, "dcserved_dispatch_kind_dispatched_total", "counter",
				"Job misses forwarded to the worker set, by job kind.", d.PerKind,
				func(k sweep.DispatchKindStats) int64 { return k.Dispatched })
			writeKindMetric(&b, "dcserved_dispatch_kind_remote_hits_total", "counter",
				"Dispatched jobs answered by a worker, by job kind.", d.PerKind,
				func(k sweep.DispatchKindStats) int64 { return k.RemoteHits })
			writeKindMetric(&b, "dcserved_dispatch_kind_fallbacks_total", "counter",
				"Dispatched jobs that fell back to local simulation, by job kind.", d.PerKind,
				func(k sweep.DispatchKindStats) int64 { return k.Fallbacks })
			writeKindMetric(&b, "dcserved_dispatch_kind_errors_total", "counter",
				"Failed worker attempts, by job kind.", d.PerKind,
				func(k sweep.DispatchKindStats) int64 { return k.Errors })
			writeKindMetric(&b, "dcserved_dispatch_kind_shed_total", "counter",
				"Dispatch attempts answered 429, by job kind.", d.PerKind,
				func(k sweep.DispatchKindStats) int64 { return k.Shed })
		}
		// Replication families (and the adopted counter that only moves
		// with replication on) appear only when a replicator is wired in,
		// so the single-node exposition — and its golden test — is
		// byte-identical to before replication existed.
		if rp := bs.Replication; rp != nil {
			writeMetric(&b, "dcserved_store_adopted_total", "counter",
				"Records adopted verbatim from replica peers (push or anti-entropy).", float64(bs.Adopted))
			writeMetric(&b, "dcserved_replica_peers", "gauge",
				"Configured replica peers (-replicas).", float64(rp.Peers))
			writeMetric(&b, "dcserved_replica_factor", "gauge",
				"Total copies of each fresh record, this node included (-replication-factor).", float64(rp.Factor))
			writeMetric(&b, "dcserved_replica_pushed_total", "counter",
				"Fresh records delivered to a peer by write-through fan-out.", float64(rp.Pushed))
			writeMetric(&b, "dcserved_replica_push_errors_total", "counter",
				"Fan-out pushes that exhausted their retries.", float64(rp.PushErrors))
			writeMetric(&b, "dcserved_replica_dropped_total", "counter",
				"Fan-out pushes dropped on queue overflow or shutdown (anti-entropy repairs them).", float64(rp.Dropped))
			writeMetric(&b, "dcserved_replica_queue_depth", "gauge",
				"Fan-out pushes currently queued.", float64(rp.QueueDepth))
			writeMetric(&b, "dcserved_replica_digest_rounds_total", "counter",
				"Anti-entropy digest exchanges run.", float64(rp.DigestRounds))
			writeMetric(&b, "dcserved_replica_pulled_total", "counter",
				"Records fetched from peers during anti-entropy.", float64(rp.Pulled))
			writeMetric(&b, "dcserved_replica_pull_errors_total", "counter",
				"Failed peer digest/record fetches.", float64(rp.PullErrors))
			writeMetric(&b, "dcserved_replica_repaired_total", "counter",
				"Divergent records adopted during anti-entropy.", float64(rp.Repaired))
			writeMetric(&b, "dcserved_replica_cluster_records", "gauge",
				"Records across the cluster at the last digest round (sum over peers, copies counted).", float64(rp.ClusterRecords))
			writeMetric(&b, "dcserved_replica_cluster_bytes", "gauge",
				"Record bytes across the cluster at the last digest round.", float64(rp.ClusterBytes))
		}
	}
	s.writeTenantMetrics(&b)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Header().Set("Content-Length", strconv.Itoa(b.Len()))
	w.Write([]byte(b.String()))
}

// writeTenantMetrics emits the per-tenant accounting families. The
// families only appear once at least one tenant is known (a key loaded
// or an X-Dcs-Tenant attribution seen), so the auth-off exposition —
// and its golden test — is byte-identical to before tenancy existed.
func (s *Server) writeTenantMetrics(b *strings.Builder) {
	snaps := s.tenants.Snapshots()
	if len(snaps) == 0 {
		return
	}
	writeTenantMetric(b, "dcserved_tenant_requests_total", "counter",
		"Requests admitted, by tenant.", snaps,
		func(t tenant.Snapshot) float64 { return float64(t.Usage.Requests) })
	writeTenantMetric(b, "dcserved_tenant_rate_limited_total", "counter",
		"Requests refused 429 quota_exceeded by the tenant's rate limit.", snaps,
		func(t tenant.Snapshot) float64 { return float64(t.Usage.RateLimited) })
	writeTenantMetric(b, "dcserved_tenant_quota_denied_total", "counter",
		"Requests and jobs refused 429 quota_exceeded by a cumulative quota.", snaps,
		func(t tenant.Snapshot) float64 { return float64(t.Usage.QuotaDenied) })
	writeTenantMetric(b, "dcserved_tenant_instructions_total", "counter",
		"Simulated instructions charged to each tenant's completed jobs.", snaps,
		func(t tenant.Snapshot) float64 { return float64(t.Usage.Instructions) })
	fmt.Fprintf(b, "# HELP %[1]s Completed compute jobs, by tenant and job kind.\n# TYPE %[1]s counter\n",
		"dcserved_tenant_jobs_total")
	for _, t := range snaps {
		for _, kind := range sortedKinds(t.Usage.Jobs) {
			fmt.Fprintf(b, "dcserved_tenant_jobs_total{tenant=%q,kind=%q} %s\n", t.ID, kind,
				strconv.FormatFloat(float64(t.Usage.Jobs[kind]), 'g', -1, 64))
		}
	}
}

// sortedKinds returns the map's keys in stable order for the exposition.
func sortedKinds(m map[string]int64) []string {
	kinds := make([]string, 0, len(m))
	for k := range m {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	return kinds
}

// writeTenantMetric emits one family with a tenant="..." sample per
// known tenant.
func writeTenantMetric(b *strings.Builder, name, typ, help string, snaps []tenant.Snapshot, get func(tenant.Snapshot) float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, t := range snaps {
		fmt.Fprintf(b, "%s{tenant=%q} %s\n", name, t.ID,
			strconv.FormatFloat(get(t), 'g', -1, 64))
	}
}

// writeMetric emits one single-sample metric family.
func writeMetric(b *strings.Builder, name, typ, help string, v float64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n%s %s\n",
		name, help, name, typ, name, strconv.FormatFloat(v, 'g', -1, 64))
}

// writeKindMetric emits one metric family with a kind="..." sample per job
// kind.
func writeKindMetric(b *strings.Builder, name, typ, help string, kinds []sweep.DispatchKindStats, get func(sweep.DispatchKindStats) int64) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	for _, k := range kinds {
		fmt.Fprintf(b, "%s{kind=%q} %s\n", name, k.Kind,
			strconv.FormatFloat(float64(get(k)), 'g', -1, 64))
	}
}
