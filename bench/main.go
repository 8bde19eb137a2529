// Command bench is the repository's benchmark. One command builds
// ./cmd/dcserved, spawns the real binary on loopback ports with the shipped
// default flags, drives four workloads from one process, verifies every
// response against an in-process oracle, reconciles its counts with the
// servers' /metrics, and prints every metric by name and unit.
//
//	go run -C bench . -seed 7                       all four workloads, untraced then traced
//	go run -C bench . --workload cold_jobs --seed 7 --seconds 10 --trace 0
//	go run -C bench . compare out/a.jsonl out/b.jsonl
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Every run also appends
// that object, tagged with workload, seed and trace, to -out (a JSON-lines
// file) — the input of the compare subcommand. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// runRecord is one run as -out stores it.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// result is the contract's last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	workload := flag.String("workload", "all", "one of "+strings.Join(workloadNames, ", ")+", or all")
	seed := flag.Uint64("seed", 1, "workload seed: drives job profile seeds, endpoint order and the -seed handed to servers")
	seconds := flag.Int("seconds", 10, "length of the measured phase")
	trace := flag.Int("trace", -1, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; -1: both")
	out := flag.String("out", "", "append each run's result to this JSON-lines file (default bench/out/runs.jsonl)")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	names := workloadNames
	if *workload != "all" {
		if !slices.Contains(workloadNames, *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
			os.Exit(2)
		}
		names = []string{*workload}
	}
	traces := []int{0, 1}
	if *trace >= 0 {
		traces = []int{*trace}
	}

	code, err := run(names, traces, *seed, time.Duration(*seconds)*time.Second, *out)
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	os.Exit(code)
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding the dcbench module and cmd/dcserved.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "dcserved", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no checkout root (cmd/dcserved) above the working directory")
		}
		dir = parent
	}
}

func run(names []string, traces []int, seed uint64, seconds time.Duration, outPath string) (int, error) {
	root, err := findRoot()
	if err != nil {
		return 0, err
	}
	h := &harness{outDir: filepath.Join(root, "bench", "out"), seed: seed, seconds: seconds,
		clients: min(runtime.NumCPU(), 4)}
	h.tmpDir = filepath.Join(h.outDir, "tmp", fmt.Sprint(os.Getpid()))
	if err := os.MkdirAll(h.tmpDir, 0o755); err != nil {
		return 0, err
	}
	defer os.RemoveAll(h.tmpDir)
	if outPath == "" {
		outPath = filepath.Join(h.outDir, "runs.jsonl")
	}

	// Every child dies with the harness: on return through stopAll, and on
	// a signal here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.RemoveAll(h.tmpDir)
		os.Exit(130)
	}()

	if h.bin, h.build, err = buildServer(root, h.outDir); err != nil {
		return 0, err
	}
	fmt.Printf("bench: seed=%d clients=%d (closed loop, keep-alive) seconds=%v build=%.2fs\n",
		seed, h.clients, seconds.Seconds(), h.build.Seconds())

	code := 0
	for _, name := range names {
		for _, tr := range traces {
			h.traced = tr == 1
			res, err := h.runOne(name)
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			if !res.Correct {
				code = 1
			}
			if err := appendRecord(outPath, runRecord{Workload: name, Seed: seed, Trace: tr, result: *res}); err != nil {
				return 0, err
			}
			line, err := json.Marshal(res)
			if err != nil {
				return 0, err
			}
			fmt.Println(string(line))
		}
	}
	return code, nil
}

// runOne runs one workload once, prints its report and returns the
// contract's result.
func (h *harness) runOne(name string) (*result, error) {
	var m *measured
	var err error
	switch name {
	case "warm_reads":
		m, err = h.warmReads()
	case "cold_jobs":
		m, err = h.jobs(name, false)
	case "dispatch_jobs":
		m, err = h.jobs(name, true)
	case "cold_figures":
		m, err = h.coldFigures()
	}
	if err != nil {
		return nil, err
	}
	specs, values := endToEnd, m.endToEndMetrics()
	if h.traced {
		m.clientLayers()
		if err := h.tracedLayers(name, m); err != nil {
			return nil, err
		}
		specs, values = perLayer, m.layer
	}

	mode := "untraced"
	if h.traced {
		mode = "traced"
	}
	_, beyond := percentile(m.units, tailPercentile)
	fmt.Printf("\n== %s (%s) seed=%d clients=%d: %d ops in %.2fs, %d latency samples, %d beyond p%d",
		name, mode, h.seed, h.clients, m.main.attempted, m.wall.Seconds(), len(m.units), beyond, tailPercentile)
	if !supported(beyond) {
		fmt.Print(" (fewer than 10: read the tail as the sample's upper edge)")
	}
	fmt.Println()
	fmt.Printf("  set-ups (s): %.4g; restart passes (ms): %.4g\n", m.setups, m.restarts)
	res := &result{Attempted: m.attempted(), Failed: m.failed(), Metrics: map[string]metricValue{}}
	for _, s := range specs {
		v := values[s.Name]
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Printf("  %-34s %16.6g %s\n", s.Name, v, s.Unit)
	}
	fmt.Printf("  %-34s %16.6g ratio (%d of %d)\n", "failed_share",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)
	for _, e := range m.failures() {
		fmt.Println("  FAILED", e)
	}
	for _, p := range m.problems {
		fmt.Println("  RECONCILE", p)
	}
	res.Correct = res.Failed == 0 && len(m.problems) == 0 && res.Attempted > 0
	return res, nil
}

func appendRecord(path string, rec runRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
