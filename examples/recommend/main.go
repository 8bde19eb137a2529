// Recommend: the electronic-commerce recommendation scenario (the paper's
// IBCF workload). Train item-based collaborative filtering twice — serially
// with the library and distributed over the MapReduce cluster — verify they
// agree, and produce actual recommendations for a user.
package main

import (
	"fmt"
	"log"

	"dcbench/internal/analysis"
	"dcbench/internal/datagen"
	"dcbench/internal/workloads"
)

func main() {
	// Serial recommender on a rating matrix with latent structure.
	ratings := datagen.Ratings(99, 120, 200, 15)
	cf := analysis.NewItemCF(25)
	var held []datagen.Rating
	for i, r := range ratings {
		if i%10 == 0 {
			held = append(held, r) // hold out for evaluation
			continue
		}
		cf.Add(r.User, r.Item, r.Score)
	}

	var absErr float64
	n := 0
	for _, r := range held {
		if p, ok := cf.Predict(r.User, r.Item); ok {
			if d := p - r.Score; d < 0 {
				absErr -= d
			} else {
				absErr += d
			}
			n++
		}
	}
	fmt.Printf("Serial item-based CF: %d ratings, held-out MAE %.3f (scores 1-5)\n",
		len(ratings)-len(held), absErr/float64(n))

	fmt.Println("\nTop-5 recommendations for user 0:")
	for _, rec := range cf.Recommend(0, 5) {
		fmt.Printf("  item %3d  predicted score %.2f\n", rec.Item, rec.Sim)
	}

	// The same algorithm as the paper's three-job MapReduce pipeline.
	env := workloads.NewEnv(4, 0.005, 99)
	st, err := workloads.ByName("IBCF").Run(env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nDistributed IBCF (3 MapReduce jobs on 4 slaves):\n")
	fmt.Printf("  simulated makespan        %8.1f s\n", st.Makespan)
	fmt.Printf("  item pairs scored         %8.0f\n", st.Quality["pairs"])
	fmt.Printf("  max divergence vs serial  %8.2g (cosine similarity)\n",
		st.Quality["cosine_divergence"])
}
