// Meshpart: the FEM-workload comparison of the paper's intro — bisect
// a finite-element-style mesh with every partitioner in the repository
// and compare cut quality and modeled parallel time across processor
// counts.
package main

import (
	"fmt"
	"os"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geopart"
	"repro/internal/mpi"
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
		sp := must(core.PartitionChecked(g, p, core.DefaultOptions(1)))
		fmt.Printf("%-12s %6d %8d %11.4fs\n", "ScalaPart", p, sp.Cut, sp.Times.Total)

		pm := must(baseline.PartitionChecked(g, p, baseline.ParMetisLike(1)))
		fmt.Printf("%-12s %6d %8d %11.4fs\n", "ParMetis", p, pm.Cut, pm.Total)

		pts := must(baseline.PartitionChecked(g, p, baseline.PtScotchLike(1)))
		fmt.Printf("%-12s %6d %8d %11.4fs\n", "Pt-Scotch", p, pts.Cut, pts.Total)

		// The mesh has natural coordinates, so RCB and the partition-
		// only ScalaPart (SP-PG7-NL) apply directly — the use case of
		// the paper's Figure 4.
		rcb := must(core.RCBParallelChecked(g, mesh.Coords, p, mpi.DefaultModel()))
		fmt.Printf("%-12s %6d %8d %11.4fs\n", "RCB", p, rcb.Cut, rcb.Times.Total)

		pg := must(core.PartitionGeometricChecked(g, mesh.Coords, p, geopart.DefaultParallelConfig(), mpi.DefaultModel()))
		fmt.Printf("%-12s %6d %8d %11.4fs\n", "SP-PG7-NL", p, pg.Cut, pg.Times.Total)
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
