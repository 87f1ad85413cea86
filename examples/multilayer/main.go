// Multilayer demonstrates the §IV-A extension with the repository's
// multilayer detector: core.TrainMultiLayer on generated two-metal clips
// whose hotspots are via landings too small to yield, a relation between
// the layers that neither layer alone reveals. Topological classification
// runs on metal 1; each cluster's kernel sees both layers' feature sets
// plus their overlap set. A held-out set is then classified clip by clip.
//
//	go run ./examples/multilayer
package main

import (
	"fmt"
	"log"

	"hotspot/internal/clip"
	"hotspot/internal/core"
	"hotspot/internal/iccad"
)

func main() {
	train := iccad.GenerateMultiLayer(iccad.MLConfig{HS: 30, NHS: 90, Seed: 1})
	test := iccad.GenerateMultiLayer(iccad.MLConfig{HS: 20, NHS: 60, Seed: 2})
	d, err := core.TrainMultiLayer(train, 0, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}

	correct, hits, actual := 0, 0, 0
	for _, p := range test {
		got := d.ClassifyPattern(p)
		if got == p.Label {
			correct++
		}
		if p.Label == clip.Hotspot {
			actual++
			if got == clip.Hotspot {
				hits++
			}
		}
	}
	fmt.Printf("multilayer detector: %d kernels from %d training clips (classified on layer 0)\n",
		d.NumKernels(), len(train))
	fmt.Printf("held-out accuracy: %.1f%% (%d/%d)\n",
		100*float64(correct)/float64(len(test)), correct, len(test))
	fmt.Printf("held-out hit rate: %.1f%% (%d/%d via-landing hotspots)\n",
		100*float64(hits)/float64(actual), hits, actual)
}
