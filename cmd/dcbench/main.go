// Command dcbench regenerates the tables and figures of "Characterizing
// Data Analysis Workloads in Data Centers" (IISWC 2013) on the simulated
// cluster and core models.
//
// Usage:
//
//	dcbench list                 # the 26-workload registry and the 11 cluster workloads
//	dcbench run <workload>       # one cluster workload on 4 slaves
//	dcbench figure <1..12>       # regenerate one figure
//	dcbench table <1..3>         # regenerate one table
//	dcbench export               # the characterization sweep as JSON
//	dcbench all                  # everything, in paper order
//
// Flags:
//
//	-scale f    fraction of the paper's input sizes for cluster runs (default 0.05)
//	-seed n     generator seed (default 42)
//	-instrs n   measured instructions per workload trace (default 650000)
//	-warmup n   ramp-up instructions excluded from counters (default 250000)
//	-csv        emit CSV instead of tables
//	-chart      append an ASCII bar chart to single-metric figures
//	-store dir  persist sweep and cluster results in dir across runs, sharing
//	            warm results with dcserved; -store-max-bytes caps it as in
//	            dcserved (default 256 MiB)
//	-debug-addr addr   serve /debug/traces and /debug/pprof while the run
//	            lasts (profile a long `all` in flight); empty disables
//
// Sweeps fan out over every core GOMAXPROCS allows, at most one simulation
// or cluster cell per core at once, and are deterministic at any width:
// GOMAXPROCS=1 gives a serial run with bit-identical output at the same
// seed. dcbench is not a cluster node; for dispatched or replicated
// results, fetch them from a dcserved front-end (GET
// /v1/figures/N?format=csv), whose workers simulate the same keys on the
// same machine model.
//
// SIGINT/SIGTERM cancel the run: simulations stop between trace batches.
// The process runs at Go's default GC target (GOGC=100 unless exported).
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"syscall"

	"dcbench/internal/core"
	"dcbench/internal/obs"
	"dcbench/internal/report"
	"dcbench/internal/store"
	"dcbench/internal/sweep"
	"dcbench/internal/workloads"
)

// registerFlags declares the CLI's flags on fs (the shared run-parameter
// flags, the shared store flag, plus dcbench's output flags), defaulted
// from *opts and written back on Parse. Split out of main so tests can pin
// the usage text to the real defaults.
func registerFlags(fs *flag.FlagSet, opts *report.Options) (csv, chart *bool, storeDir, debugAddr *string, storeOpts *store.OpenOptions) {
	report.RegisterFlags(fs, opts)
	storeOpts = &store.OpenOptions{}
	store.RegisterFlags(fs, storeOpts)
	storeDir = fs.String("store", "", "persist results in this store directory across runs; empty disables")
	debugAddr = fs.String("debug-addr", "", "serve /debug/traces and /debug/pprof on this address for the run's duration; empty disables")
	csv = fs.Bool("csv", false, "emit CSV")
	chart = fs.Bool("chart", false, "append ASCII bar charts")
	return csv, chart, storeDir, debugAddr, storeOpts
}

func main() {
	opts := report.DefaultOptions()
	csv, chart, storeDir, debugAddr, storeOpts := registerFlags(flag.CommandLine, &opts)
	flag.Parse()

	// The run owns its memo tables, as dcserved does: one engine for the
	// sweeps and one cache for the cluster runs, so `all` simulates each
	// once across the figures and tables that share them. With -store both
	// sit over the store's backend, so dcbench and dcserved share warm
	// results over one directory.
	var backend store.Backend
	if *storeDir != "" {
		st, err := store.OpenWith(*storeDir, *storeOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "dcbench:", err)
			os.Exit(1)
		}
		defer st.Close()
		backend = st.Backend(nil)
	}
	opts.Engine = sweep.NewEngine()
	opts.Engine.SetMemoBackend(backend)
	opts.Cluster = workloads.NewStatsCache(backend)
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	// An interrupted run cancels its context: sweeps stop between trace
	// batches. A second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// With -debug-addr the run carries a process recorder and one trace
	// per invocation, so a long `all` can be profiled (and, once finished,
	// its phase timeline fetched) over HTTP while it runs.
	var tr *obs.Trace
	if *debugAddr != "" {
		rec := obs.NewRecorder(0)
		go func() {
			if err := http.ListenAndServe(*debugAddr, obs.DebugMux(rec)); err != nil {
				fmt.Fprintln(os.Stderr, "dcbench: debug listener:", err)
			}
		}()
		tr = rec.StartTrace("dcbench "+args[0], "")
		ctx = obs.With(ctx, tr)
	}
	var err error
	switch args[0] {
	case "list":
		err = list()
	case "run":
		if len(args) < 2 {
			usage()
		}
		err = runWorkload(args[1], opts)
	case "figure":
		if len(args) < 2 {
			usage()
		}
		err = figure(ctx, args[1], opts, *csv, *chart)
	case "table":
		if len(args) < 2 {
			usage()
		}
		err = table(ctx, args[1], opts, *csv)
	case "export":
		err = exportJSON(ctx, opts)
	case "all":
		err = all(ctx, opts, *csv, *chart)
	default:
		usage()
	}
	tr.Finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcbench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dcbench [flags] list | run <workload> | figure <1..12> | table <1..3> | export | all")
	flag.PrintDefaults()
	os.Exit(2)
}

// exportJSON dumps the full characterization sweep for offline analysis.
func exportJSON(ctx context.Context, o report.Options) error {
	results, err := report.Characterized(ctx, o)
	if err != nil {
		return err
	}
	data, err := core.ExportJSON(results)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(data, '\n'))
	return err
}

func list() error {
	fmt.Println("Cluster workloads (Figures 2 and 5, Tables I-II):")
	for _, w := range workloads.All() {
		fmt.Printf("  %-14s %3.0f GB  %v\n", w.Name, w.InputGB, w.Domains)
	}
	fmt.Println("\nCharacterization registry (Figures 3-12):")
	for _, w := range core.Registry() {
		fmt.Printf("  %-18s %-12s %s\n", w.Name, w.Suite, w.Class)
	}
	return nil
}

func runWorkload(name string, o report.Options) error {
	w := workloads.ByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (try `dcbench list`)", name)
	}
	env := workloads.NewEnv(4, o.Scale, o.Seed)
	st, err := w.Run(env)
	if err != nil {
		return err
	}
	fmt.Printf("%s on 4 slaves at scale %.3f:\n", w.Name, o.Scale)
	fmt.Printf("  makespan        %10.1f s (simulated)\n", st.Makespan)
	fmt.Printf("  jobs            %10d\n", st.Jobs)
	fmt.Printf("  input           %10.2f GB (simulated)\n", float64(st.InputSimBytes)/1e9)
	fmt.Printf("  disk writes     %10.1f ops/s/node\n", st.DiskWritesPerSecond())
	fmt.Printf("  network         %10.2f GB\n", float64(st.NetBytes)/1e9)
	fmt.Printf("  core busy       %10.1f core-seconds\n", st.CoreSeconds)
	fmt.Println("  quality:")
	for k, v := range st.Quality {
		fmt.Printf("    %-22s %v\n", k, v)
	}
	return nil
}

func emit(t *report.Table, csv, chart bool) {
	if csv {
		fmt.Print(t.CSV())
		return
	}
	fmt.Print(t.String())
	if chart && len(t.Columns) > 0 {
		fmt.Print(t.BarChart(50))
	}
	fmt.Println()
}

func figure(ctx context.Context, num string, o report.Options, csv, chart bool) error {
	n, err := strconv.Atoi(num)
	if err != nil {
		return fmt.Errorf("figure number must be 1..12")
	}
	t, err := report.FigureByNumber(ctx, o, n)
	if err != nil {
		return err
	}
	emit(t, csv, chart)
	return nil
}

func table(ctx context.Context, num string, o report.Options, csv bool) error {
	n, err := strconv.Atoi(num)
	if err != nil {
		return fmt.Errorf("table number must be 1..3")
	}
	t, text, err := report.TableByNumber(ctx, o, n)
	if err != nil {
		return err
	}
	if t != nil {
		emit(t, csv, false)
		return nil
	}
	fmt.Println(text)
	return nil
}

func all(ctx context.Context, o report.Options, csv, chart bool) error {
	emit(report.Figure1(), csv, chart)
	fmt.Println(report.Table2())
	fmt.Println(report.Table3())
	t2, err := report.Figure2(ctx, o)
	if err != nil {
		return err
	}
	emit(t2, csv, chart)
	t5, err := report.Figure5(ctx, o)
	if err != nil {
		return err
	}
	emit(t5, csv, chart)
	results, err := report.Characterized(ctx, o)
	if err != nil {
		return err
	}
	t1, err := report.Table1(ctx, o, results)
	if err != nil {
		return err
	}
	emit(t1, csv, false)
	for _, b := range []func([]*core.Result) *report.Table{
		report.Figure3, report.Figure4, report.Figure6, report.Figure7,
		report.Figure8, report.Figure9, report.Figure10, report.Figure11,
		report.Figure12,
	} {
		emit(b(results), csv, chart)
	}
	return nil
}
