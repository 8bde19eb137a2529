package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// This file is `bench compare a.jsonl b.jsonl`: the bounds of
// BENCHMARK.json applied to two sets of runs (a = parent, b = change), one
// row per (end-to-end metric, workload). It is the tool a later change uses
// to show a gain or the absence of a regression, and the one this
// benchmark's own noise check uses on two sets of the same code.

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readRuns(path string) ([]runRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric's values over a set's runs of one workload, in
// run order.
func values(runs []runRecord, workload, metric string, trace int) []float64 {
	var out []float64
	for _, r := range runs {
		if mv, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, mv.Value)
		}
	}
	return out
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method), so
// a spread computed here equals the one the benchmark contract computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		d := float64(i*m - j*4)
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	if m := median(xs); m != 0 {
		return (q3 - q1) / m
	}
	return 0
}

// verdict compares one metric's two sets. worse is how much worse b's
// median is than a's, as a share of a's (negative = better).
func verdict(a, b []float64, lowerBetter bool, bound float64) (v string, worse float64) {
	if !lowerBetter { // compare negated values: lower is then better on both kinds
		a, b = negated(a), negated(b)
	}
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / math.Abs(ma)
	}
	if len(a) > 1 && len(b) > 1 && max(math.Abs(spread(a)), math.Abs(spread(b))) > bound {
		// The runs scatter more than the bound: "unchanged" and
		// "regressed" cannot be told apart from noise, unless every run
		// of the change beats every run of the parent.
		bestA, _ := minmax(a)
		if _, worstB := minmax(b); worstB < bestA {
			return "improved", worse
		}
		return "unresolved", worse
	}
	if worse > bound {
		return "regressed", worse
	}
	// A gain needs the change to win nine tenths of the pairs (runs paired
	// in order, ties counting for neither) and the medians to differ by
	// more than the parent's own interquartile distance.
	q1, q3 := quartiles(a)
	if mb < ma && ma-mb > q3-q1 {
		wins, losses := 0, 0
		for i := 0; i < min(len(a), len(b)); i++ {
			switch {
			case b[i] < a[i]:
				wins++
			case b[i] > a[i]:
				losses++
			}
		}
		if wins > 0 && float64(wins) >= 0.9*float64(wins+losses) {
			return "improved", worse
		}
	}
	return "unchanged", worse
}

func negated(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

func minmax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	layers := fs.Bool("layers", false, "also list the per-layer metrics of the traced runs (no bounds, no verdicts)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-layers] parent.jsonl change.jsonl")
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	regressed, err := compareFiles(fs.Arg(0), fs.Arg(1), *layers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

func compareFiles(pathA, pathB string, layers bool) (regressed bool, err error) {
	root, err := findRoot()
	if err != nil {
		return false, err
	}
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	return compare(root, a, b, layers)
}

func compare(root string, a, b []runRecord, layers bool) (regressed bool, err error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return false, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	fmt.Printf("%-22s %-14s %5s %14s %14s %8s %8s %8s %6s  %s\n",
		"metric", "workload", "runs", "parent median", "change median", "worse", "spreadA", "spreadB", "bound", "verdict")
	for _, m := range bf.EndToEnd {
		for _, w := range workloadNames {
			va, vb := values(a, w, m.Name, 0), values(b, w, m.Name, 0)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, worse := verdict(va, vb, m.Better == "lower", m.Bound)
			if v == "regressed" {
				regressed = true
			}
			fmt.Printf("%-22s %-14s %2d/%-2d %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s\n",
				m.Name, w, len(va), len(vb), median(va), median(vb), 100*worse,
				100*spread(va), 100*spread(vb), 100*m.Bound, v)
		}
	}
	if !layers {
		return regressed, nil
	}
	fmt.Printf("\n%-34s %-14s %14s %14s %8s\n", "layer metric", "workload", "parent median", "change median", "change")
	for _, m := range perLayer {
		for _, w := range workloadNames {
			va, vb := values(a, w, m.Name, 1), values(b, w, m.Name, 1)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change := 0.0
			if ma := median(va); ma != 0 {
				change = 100 * (median(vb) - ma) / ma
			}
			fmt.Printf("%-34s %-14s %14.6g %14.6g %+7.1f%%\n", m.Name, w, median(va), median(vb), change)
		}
	}
	return regressed, nil
}
