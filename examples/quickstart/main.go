// Quickstart: generate a mesh, bisect it with ScalaPart on 16
// simulated processors, and inspect the result.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	// A Delaunay mesh of 20k random points — the kind of graph the
	// paper's delaunay_n* family represents.
	mesh := gen.DelaunayRandom(20000, 7)
	g := mesh.G
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices(), g.NumEdges())

	// ScalaPart end-to-end: coarsen, embed with the fixed-lattice
	// scheme, cut with the parallel geometric partitioner, refine on a
	// coordinate strip. P is the simulated processor count; results
	// come from the real parallel algorithm, times from its modeled
	// clocks.
	// A rank failure comes back as an error, never as a panic.
	res, err := core.PartitionChecked(g, 16, core.DefaultOptions(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}

	fmt.Printf("cut: %d edges (%d before strip refinement)\n", res.Cut, res.CutBefore)
	fmt.Printf("imbalance: %.3f\n", res.Imbalance)
	fmt.Printf("modeled time on P=16: %.4fs (coarsen %.4f, embed %.4f, partition %.4f)\n",
		res.Times.Total, res.Times.Coarsen, res.Times.Embed, res.Times.Partition)

	// The partition is a plain per-vertex side array.
	w := graph.PartWeights(g, res.Part, 2)
	fmt.Printf("part sizes: %d / %d\n", w[0], w[1])
	if err := sanity(g, res.Part, res.Cut); err != nil {
		fmt.Println("sanity:", err)
	} else {
		fmt.Println("sanity: reported cut matches the partition")
	}
}

func sanity(g *graph.Graph, part []int32, cut int64) error {
	if got := graph.CutSize(g, part); got != cut {
		return fmt.Errorf("cut mismatch: %d vs %d", got, cut)
	}
	return nil
}
