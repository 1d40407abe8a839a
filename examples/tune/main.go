// Tune: stop hard-coding remedy parameters. Every remedy in the suite has
// a knob — a block size, a message size, a replication factor, a checkpoint
// interval, an algorithm choice — and the right setting depends on the
// machine, not on the constant someone once picked. This example:
//
//  1. Sweeps the registered tunables on two very different machines and
//     shows the tuner choosing different parameters for each, never doing
//     worse than the hand-picked default (the default is always evaluated
//     first).
//  2. Compares search strategies on the checkpoint-interval tunable:
//     exhaustive grid pays for every point of the axis; golden-section
//     finds the same optimum of the unimodal curve in O(log range)
//     evaluations.
//  3. Re-tunes through a shared cache and shows the repeat costing zero
//     fresh evaluations.
//
// Everything is deterministic: same machine, same tunable, same answer.
package main

import (
	"fmt"
	"log"

	"tenways"
)

func main() {
	fmt.Println("== one knob, two machines ==")
	chunk, err := tenways.TunableByID("F4-chunk", false)
	if err != nil {
		log.Fatal(err)
	}
	for _, m := range []*tenways.Machine{tenways.Laptop2009(), tenways.Exascale()} {
		res, def, _, err := chunk.TuneVsDefault(m, tenways.TuneOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-22s default %s -> tuned %s (%.3gx faster, %d evaluations)\n",
			m.Name, chunk.DefaultLabel(), res.Describe(),
			def.Seconds/res.Best.Cost.Seconds, res.Evaluations)
	}

	fmt.Println("\n== strategies on the checkpoint-interval U-curve ==")
	ckpt, err := tenways.TunableByID("F25-interval", false)
	if err != nil {
		log.Fatal(err)
	}
	m := tenways.Petascale2009()
	grid, err := ckpt.Tune(m, tenways.TuneOptions{Strategy: tunableGrid()})
	if err != nil {
		log.Fatal(err)
	}
	golden, err := ckpt.Tune(m, tenways.TuneOptions{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("grid:   %s at %.4g ms in %d evaluations (the oracle: every interval tried)\n",
		grid.Describe(), grid.Best.Cost.Seconds*1e3, grid.Evaluations)
	fmt.Printf("golden: %s at %.4g ms in %d evaluations (%.1f%% off the oracle, O(log range) probes)\n",
		golden.Describe(), golden.Best.Cost.Seconds*1e3, golden.Evaluations,
		100*(golden.Best.Cost.Seconds/grid.Best.Cost.Seconds-1))

	fmt.Println("\n== the memo cache makes re-tuning free ==")
	cache := tenways.NewTuneCache()
	first, err := ckpt.Tune(m, tenways.TuneOptions{Cache: cache})
	if err != nil {
		log.Fatal(err)
	}
	again, err := ckpt.Tune(m, tenways.TuneOptions{Cache: cache})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first run:  %d fresh evaluations\n", first.Evaluations)
	fmt.Printf("second run: %d fresh evaluations, %d cache hits\n",
		again.Evaluations, again.CacheHits)
}

// tunableGrid returns the exhaustive strategy; a helper so the example
// reads as prose.
func tunableGrid() tenways.TuneStrategy { return tenways.TuneGrid() }
