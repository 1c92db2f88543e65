// Command mdmbench prints the table of paper measurements defined in
// internal/experiments (DESIGN.md's Q1-Q7, the figure-derived F-rows
// and the A-row ablations): the rows recorded in EXPERIMENTS.md.
//
// Usage:
//
//	mdmbench [-quick]
//
// -quick runs the test sizes with a 50 ms window per row (seconds
// instead of minutes).
package main

import (
	"flag"
	"fmt"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced workload sizes")
	flag.Parse()

	sz := experiments.Full()
	if *quick {
		sz = experiments.Quick()
	}
	fmt.Print(experiments.Render(experiments.RunAll(sz)))
}
