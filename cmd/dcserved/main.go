// Command dcserved serves the paper's characterization results over HTTP:
// the figures and tables of "Characterizing Data Analysis Workloads in
// Data Centers" (IISWC 2013), computed on demand by the concurrent sweep
// engine and persisted in an on-disk result store, so warm results survive
// restarts and are shared across processes.
//
// Endpoints (JSON by default; ?format=csv or Accept: text/csv where a
// table shape exists):
//
//	GET  /healthz                        liveness, request, job, tenant, store, dispatch
//	                                     and replication counters
//	GET  /metrics                        the /healthz numbers as a Prometheus exposition
//	GET  /v1/workloads                   the 26-workload registry
//	GET  /v1/workloads/{name}/counters   one workload's counter file
//	GET  /v1/figures/{1..12}             the paper's figures
//	GET  /v1/tables/{1..3}               the paper's tables
//	POST /v1/jobs                        compute endpoint: run one kind-tagged job
//	                                     ("counters" or "cluster"), return its record;
//	                                     ?wait=false (or "async": true) answers 202 + job id
//	GET  /v1/jobs                        list tracked async jobs
//	GET  /v1/jobs/{id}                   one job's state + history (SSE under
//	                                     Accept: text/event-stream)
//	GET  /v1/jobs/{id}/result            the finished job's record
//	DELETE /v1/jobs/{id}                 cancel: frees the slot, stops the simulation
//	                                     once no other caller shares it
//
// Errors answer a JSON envelope {"error": {"code", "message", "trace_id"}}
// with a stable machine-readable code (also in the X-Dcs-Error-Code
// header); clients preferring text/plain get the bare message. See
// docs/api.md for the full route and error-code catalogue.
//
// Multi-tenancy: -keys-file names a JSON file of API keys; when set,
// every non-probe request must present a key (Authorization: Bearer or
// X-Dcs-Api-Key) and is rate-limited and quota-accounted per tenant.
// The file hot-reloads on SIGHUP or mtime change. -admin-addr with
// -admin-token mounts the /admin/v1 key-management plane (create/revoke
// keys, set limits, usage report) on its own listener; with -debug-addr
// set but no -admin-addr, the admin plane rides the debug listener.
// Without -keys-file the server behaves exactly as before: no auth, no
// limits — though X-Dcs-Tenant attributions are still accounted.
//
// Flags:
//
//	-addr   listen address (default :8337)
//	-keys-file f       JSON API-key file; empty = no authentication
//	-admin-addr addr   serve /admin/v1 on this separate address; empty = ride -debug-addr
//	-admin-token t     bearer token guarding /admin/v1; empty disables the admin plane
//	-store  result store directory; "" disables persistence (default dcserved.store)
//	-store-max-bytes n     LRU-evict records beyond this many bytes (default
//	                       256 MiB; 0 = the default, there is no unlimited)
//	-max-inflight n        bound concurrent compute jobs; excess shed 429 (0 = unlimited)
//	-workers host:port,...     dispatch job misses to these dcserved workers
//	-dispatch-timeout d        per-attempt timeout for dispatched jobs (a failed
//	                           attempt retries on the next two workers)
//	-dispatch-api-key k        bearer key presented to keyed workers; tenant ids are
//	                           forwarded beside it in X-Dcs-Tenant either way
//	-dispatch-replicas n       the workers' -replication-factor; above 1, reads
//	                           rotate across a key's replicas
//	-replicas host:port,...    fan fresh store records out to these peer nodes
//	                           and anti-entropy against them (requires -store);
//	                           spell each address as the front-ends' -workers do
//	-replication-factor n      copies the eager push makes of each fresh record,
//	                           this node included
//	-anti-entropy-interval d   digest-exchange period; <0 disables the loop
//	-debug-addr addr   serve /debug/traces and /debug/pprof on a separate
//	                   listener, kept off the service port; empty disables
//	-grace  shutdown grace period for in-flight requests (default 15s)
//	-scale, -seed, -instrs, -warmup, -j   as in dcbench; -j is each figure
//	                           render's fan-out, and the process runs at most one
//	                           simulation or cluster cell per core at once across
//	                           every render and job
//
// Every dcserved is a job worker: POST /v1/jobs runs one kind-tagged job —
// a characterization sweep key ("counters") or a cluster experiment cell
// ("cluster") — and answers with the store's checksummed record of the
// result. A dcserved started with -workers is a front-end over that worker
// set — misses of both kinds are hashed across the workers, results are
// verified and written through to the local store, and when no worker is
// reachable the front-end degrades to local simulation (counted per kind
// in /healthz under store.dispatch). A worker started with -max-inflight
// sheds excess jobs with 429 and a Retry-After derived from its queue
// depth and measured per-kind service time — unless the request is for a
// key the worker is already computing, in which case it joins that
// in-flight simulation instead of shedding; front-ends demote shedding
// workers in their ranking for exactly the hinted window. Cancellation is
// refcounted end to end: a client that hangs up (or DELETEs its async
// job) releases its share of the computation, and the simulation itself
// stops only when the last sharer is gone.
//
// The store is sharded on disk (store.DefaultShards, a constant) and always
// byte-bounded: /v1/jobs keys are client-chosen, so an unbounded store
// would be disk any client can fill. Both sweep counters and the cluster-experiment stats (Figures
// 2/5, Table I) persist, so a restarted server re-simulates nothing that is
// already on disk.
//
// Responses carry ETag/Cache-Control derived from (seed, scale, config
// fingerprint), and concurrent cold requests for the same resource
// coalesce into one sweep. SIGINT/SIGTERM shut down gracefully; sweeps
// still in flight after the grace period are cancelled. The process runs
// at GOGC=400 unless GOGC is exported (sweep.SetGCTarget says why).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dcbench/internal/dispatch"
	"dcbench/internal/obs"
	"dcbench/internal/replica"
	"dcbench/internal/report"
	"dcbench/internal/serve"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/tenant"
	"dcbench/internal/workloads"
)

func main() {
	sweep.SetGCTarget()
	opts := report.DefaultOptions()
	var storeOpts store.OpenOptions
	var dispatchOpts dispatch.Options
	var replicaOpts replica.Options
	addr := flag.String("addr", ":8337", "listen address")
	storeDir := flag.String("store", "dcserved.store", "result store directory; empty disables persistence")
	grace := flag.Duration("grace", 15*time.Second, "shutdown grace period")
	debugAddr := flag.String("debug-addr", "", "serve /debug/traces and /debug/pprof on this separate address; empty disables")
	maxInflight := flag.Int("max-inflight", 0, "bound concurrent compute jobs; excess answered 429 + Retry-After (0 = unlimited)")
	keysFile := flag.String("keys-file", "", "JSON API-key file; empty disables authentication")
	adminAddr := flag.String("admin-addr", "", "serve /admin/v1 on this separate address; empty = ride -debug-addr")
	adminToken := flag.String("admin-token", "", "bearer token guarding /admin/v1; empty disables the admin plane")
	report.RegisterFlags(flag.CommandLine, &opts)
	store.RegisterFlags(flag.CommandLine, &storeOpts)
	dispatch.RegisterFlags(flag.CommandLine, &dispatchOpts)
	replica.RegisterFlags(flag.CommandLine, &replicaOpts)
	flag.Parse()

	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo}))
	slog.SetDefault(log)

	cfg := serve.Config{Options: opts, MaxInflight: *maxInflight, Logger: log}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var tenants *tenant.Registry
	if *keysFile != "" {
		var err error
		tenants, err = tenant.Open(*keysFile, log)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcserved:", err)
			os.Exit(1)
		}
		tenants.WatchSIGHUP(ctx)
		log.Info("tenant auth enabled", "keys", *keysFile)
	} else {
		tenants = tenant.NewRegistry(log)
	}
	cfg.Tenants = tenants
	// One plane, bottom up: the store, replication hooked onto its writes,
	// dispatch in front of both.
	var local sweep.MemoBackend
	var localStats workloads.StatsBackend
	if *storeDir != "" {
		storeOpts.Log = log
		st, err := store.OpenWith(*storeDir, storeOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcserved:", err)
			os.Exit(1)
		}
		defer st.Close()
		cfg.Store = st
		local, localStats = st.Backend(log), st.StatsBackend(log)
	}
	if len(replicaOpts.Peers) > 0 {
		replicaOpts.APIKey = dispatchOpts.APIKey
		repl, err := replica.New(replicaOpts, cfg.Store, log)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcserved:", err)
			os.Exit(1)
		}
		cfg.Replica = repl
		repl.Start(ctx)
		defer repl.Close()
		log.Info("replicating store records", "peers", replicaOpts.Peers,
			"factor", replicaOpts.Factor, "anti_entropy", replicaOpts.Interval)
	}
	if len(dispatchOpts.Workers) > 0 {
		remote, err := dispatch.New(dispatchOpts, opts.Warmup, local, localStats, log)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcserved:", err)
			os.Exit(1)
		}
		cfg.Backend = remote
		cfg.Cluster = remote
		log.Info("dispatching job misses", "workers", dispatchOpts.Workers)
	}

	srv := serve.New(cfg)
	admin := serve.AdminHandler(tenants, *adminToken, log)
	if *adminAddr != "" {
		// The admin plane gets its own listener when asked: key
		// management can then live on a tighter network than debugging.
		go func() {
			log.Info("admin listener", "addr", *adminAddr)
			if err := http.ListenAndServe(*adminAddr, admin); err != nil {
				log.Error("admin listener failed", "addr", *adminAddr, "err", err)
			}
		}()
	}
	if *debugAddr != "" {
		// Its own listener on purpose: profiling a drowning server must
		// not compete with the traffic drowning it.
		mux := http.NewServeMux()
		mux.Handle("/", obs.DebugMux(srv.Recorder()))
		if *adminAddr == "" {
			// No dedicated admin listener: the plane rides the debug one,
			// which is already operator-only.
			mux.Handle("/admin/v1/", admin)
		}
		go func() {
			log.Info("debug listener", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, mux); err != nil {
				log.Error("debug listener failed", "addr", *debugAddr, "err", err)
			}
		}()
	}
	if err := srv.Run(ctx, *addr, *grace); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dcserved:", err)
		os.Exit(1)
	}
}
