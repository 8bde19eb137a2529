// Logmining: the search-engine log analysis scenario from the paper's
// Table II — run Grep and WordCount over the same simulated corpus at
// several cluster sizes and compare how the two basic operations scale
// (the Figure 2 experiment, reduced to two workloads).
package main

import (
	"fmt"
	"log"

	"dcbench/internal/workloads"
)

func main() {
	const scale = 0.01
	fmt.Println("Log mining at cluster sizes 1, 2, 4, 8 (simulated):")
	for _, name := range []string{"Grep", "WordCount"} {
		w := workloads.ByName(name)
		fmt.Printf("\n%s (%.0f GB input at scale 1):\n", w.Name, w.InputGB)
		var base float64
		for _, slaves := range []int{1, 2, 4, 8} {
			env := workloads.NewEnv(slaves, scale, 7)
			st, err := w.Run(env)
			if err != nil {
				log.Fatal(err)
			}
			if slaves == 1 {
				base = st.Makespan
			}
			fmt.Printf("  %d slave(s): makespan %7.1fs  speedup %5.2fx  disk %6.1f w/s/node  net %5.2f GB\n",
				slaves, st.Makespan, base/st.Makespan,
				st.DiskWritesPerSecond(), float64(st.NetBytes)/1e9)
		}
	}
	fmt.Println("\nGrep is map-only and scales with the disks; WordCount adds a")
	fmt.Println("combiner+shuffle stage, so its curve flattens slightly earlier.")
}
