// Traffic analysis: visualize the GPU-to-HMC traffic distribution of a
// uniform workload (KMN) against an imbalanced one (CG.S) — the Fig. 10
// analysis that motivates removing intra-cluster channels in sFBFLY.
package main

import (
	"fmt"
	"log"

	"memnet"
)

func main() {
	results, err := memnet.Fig10(0.25)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range results {
		fmt.Println(r)
	}
	fmt.Println("Intra-cluster traffic (the 4x4 diagonal blocks) stays balanced by")
	fmt.Println("cache-line interleaving even when inter-cluster traffic is not —")
	fmt.Println("which is why sFBFLY can drop intra-cluster channels.")
}
