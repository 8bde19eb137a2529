// Quickstart: run one data analysis workload end to end on the simulated
// Hadoop cluster, then characterize its microarchitectural behaviour on
// the simulated Xeon E5645 core — the two halves of the dcbench pipeline.
package main

import (
	"fmt"
	"log"

	"dcbench/internal/core"
	"dcbench/internal/uarch"
	"dcbench/internal/workloads"
)

func main() {
	// --- Cluster level: WordCount on four slaves, 1% of the paper's input ---
	env := workloads.NewEnv(4, 0.01, 42)
	wc := workloads.ByName("WordCount")
	stats, err := wc.Run(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("WordCount on a 4-slave cluster (%.1f GB simulated input):\n",
		float64(stats.InputSimBytes)/1e9)
	fmt.Printf("  simulated makespan   %8.1f s\n", stats.Makespan)
	fmt.Printf("  disk writes          %8.1f ops/s per node\n", stats.DiskWritesPerSecond())
	fmt.Printf("  distinct words       %8.0f\n", stats.Quality["distinct_words"])
	fmt.Printf("  counts conserved     %v\n", stats.Quality["conservation"] == 1)

	// --- Core level: the same workload's instruction stream on the OoO model ---
	w, err := core.ByName("WordCount")
	if err != nil {
		log.Fatal(err)
	}
	cfg := uarch.DefaultConfig()
	cfg.Warmup = 200_000
	res := core.Characterize(w, cfg, 600_000)
	c := res.Counters
	fmt.Printf("\nWordCount on the simulated Westmere core (%d instructions measured):\n",
		c.Instructions)
	fmt.Printf("  IPC                  %8.2f   (paper: ~%.2f)\n", c.IPC(), w.Paper.IPC)
	fmt.Printf("  kernel instructions  %8.1f%%  (paper: ~%.0f%%)\n", 100*c.KernelShare(), w.Paper.KernelPct)
	fmt.Printf("  L1I misses / k-inst  %8.1f   (paper: ~%.0f)\n", c.L1IMPKI(), w.Paper.L1IMPKI)
	fmt.Printf("  L2 misses / k-inst   %8.1f\n", c.L2MPKI())
	fmt.Printf("  branch mispredicts   %8.1f%%\n", 100*c.BranchMispredictRatio())
	b := c.StallBreakdown()
	fmt.Printf("  stall breakdown      fetch %.0f%%  RAT %.0f%%  RS %.0f%%  ROB %.0f%%\n",
		100*b[0], 100*b[1], 100*b[3], 100*b[5])
}
