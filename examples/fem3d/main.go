// FEM3D: three-dimensional geometric partitioning — the "graphs with
// coordinates in two or three dimensions" case from the paper's
// introduction. Bisects a structured 3-D grid and an unstructured
// random-geometric volume mesh with sphere separators (lifted to the
// 3-sphere in R⁴) and compares against plane-cut RCB.
package main

import (
	"fmt"
	"log"

	"repro/internal/gen"
	"repro/internal/geopart"
	"repro/internal/graph"
)

func main() {
	grid := gen.Grid3D(20, 20, 20)
	rgg := gen.RandomGeometric3D(15000, 0.06, 4)
	fmt.Printf("meshes: %d-vertex 20^3 grid, %d-vertex random volume mesh\n\n",
		grid.G.NumVertices(), rgg.G.NumVertices())

	for _, m := range []*gen.Generated3D{grid, rgg} {
		_, sph, err := geopart.Partition3D(m.G, m.Coords, geopart.G30())
		if err != nil {
			log.Fatal(err)
		}
		_, rcb := geopart.RCBBisect(m.G, m.Coords)
		fmt.Printf("%-8s sphere separator: cut %5d (imb %.3f, %s)\n",
			m.Name, sph.Cut, sph.Imbalance, sph.BestKind)
		fmt.Printf("%-8s RCB plane cut:    cut %5d (imb %.3f)\n\n",
			m.Name, rcb.Cut, rcb.Imbalance)
	}

	// 8-way 3-D RCB for a full octree-style distribution.
	part, err := geopart.RCB(grid.G, grid.Coords, 8)
	if err != nil {
		log.Fatal(err)
	}
	w := graph.PartWeights(grid.G, part, 8)
	fmt.Printf("8-way RCB3D on the grid: cut %d, part weights %v\n",
		graph.CutSize(grid.G, part), w)
}
