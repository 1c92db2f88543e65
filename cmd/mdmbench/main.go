// Command mdmbench runs the reproduction's experiment suite (DESIGN.md
// Q1-Q7 and the figure-derived F-experiments) and prints the rows
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	mdmbench [-quick]
//	mdmbench -par [-quick]
//	mdmbench -repl [-quick]
//
// -quick runs reduced workload sizes (seconds instead of minutes).
//
// -par and -repl are the two scenarios the repository's benchmark
// (bench/, see bench/README.md) declares out of scope; each prints its
// sweep with the host CPU count and enforces its own floor.
// -par runs the morsel-driven parallel executor over 100k notes across
// 1k scores with 1/2/4/8 workers; at full scale on a machine with at
// least 4 CPUs the exit status is nonzero if the 8-worker speedup falls
// below 2x.
// -repl measures read-replica scaling across a 1/2/4 replica sweep: a
// leader under continuous write load ships its WAL to the replicas and
// each node's read throughput is measured in turn; at full scale the
// exit status is nonzero if the 4-replica aggregate falls below 2x the
// leader's single-node read throughput.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced workload sizes")
	parMode := flag.Bool("par", false, "benchmark the parallel executor's worker sweep")
	replMode := flag.Bool("repl", false, "benchmark read-replica scaling")
	flag.Parse()

	if *parMode || *replMode {
		run := runPar
		if *replMode {
			run = runRepl
		}
		if err := run(*quick); err != nil {
			fmt.Fprintf(os.Stderr, "mdmbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	sz := experiments.Full()
	if *quick {
		sz = experiments.Quick()
	}
	rows := experiments.RunAllExtended(sz)
	fmt.Print(experiments.Render(rows))
}
