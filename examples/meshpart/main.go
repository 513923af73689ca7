// Meshpart: the FEM-workload comparison of the paper's intro — bisect
// a finite-element-style mesh with every parallel partitioner of the
// method table and compare cut quality and modeled parallel time across
// processor counts.
package main

import (
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/gen"
)

func main() {
	// A triangulated disk with holes, like the paper's hugebubbles
	// graphs (scaled down so the example runs in seconds).
	mesh := gen.Bubbles(30000, 10, 3)
	g := mesh.G
	fmt.Printf("mesh: %d vertices, %d edges (triangulated disk with 10 holes)\n\n",
		g.NumVertices(), g.NumEdges())

	fmt.Printf("%-12s %6s %8s %12s\n", "method", "P", "cut", "modeled-time")
	for _, p := range []int{4, 64, 512} {
		// Every method of the table that runs on the simulated runtime.
		// The mesh has natural coordinates, so RCB and the partition-
		// only ScalaPart (SP-PG7-NL) apply directly — the use case of
		// the paper's Figure 4.
		for _, name := range bench.ParallelMethods() {
			m, _ := bench.LookupMethod(name)
			res := must(m.Run(g, mesh.Coords, p, 1, bench.RunConfig{}))
			fmt.Printf("%-12s %6d %8d %11.4fs\n", name, p, res.Cut, res.Times.Total)
		}
		fmt.Println()
	}
	fmt.Println("Note how RCB is fastest but cuts worst, the multilevel baselines")
	fmt.Println("cut well but slow down at scale, and SP-PG7-NL delivers geometric-")
	fmt.Println("partitioning speed with refined cuts once coordinates exist.")
}

// must returns a partitioner's result, or prints its error and exits 1:
// a rank failure comes back as an error, never as a panic.
func must[R any](res R, err error) R {
	if err != nil {
		fmt.Fprintln(os.Stderr, "meshpart:", err)
		os.Exit(1)
	}
	return res
}
