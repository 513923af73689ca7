// Ordering: use ScalaPart as the separator engine of a nested
// dissection fill-reducing ordering — the classic sparse-direct-solver
// consumer of a graph partitioner. Compares the Cholesky fill of the
// natural ordering, greedy minimum degree (leaf fallback), and nested
// dissection on a 2-D mesh.
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/order"
)

func main() {
	mesh := gen.Grid2D(48, 48)
	g := mesh.G
	n := g.NumVertices()
	fmt.Printf("matrix graph: %d vertices (a %dx%d 5-point stencil), %d edges\n\n",
		n, 48, 48, g.NumEdges())

	natural := make([]int32, n)
	for i := range natural {
		natural[i] = int32(i)
	}
	ndPerm, err := order.NestedDissection(g, 8, core.DefaultOptions(7))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ordering:", err)
		os.Exit(1)
	}

	natFill := order.FillIn(g, natural)
	ndFill := order.FillIn(g, ndPerm)
	fmt.Printf("%-28s %12s\n", "ordering", "factor nnz")
	fmt.Printf("%-28s %12d\n", "natural (band)", natFill)
	fmt.Printf("%-28s %12d  (%.1fx less fill)\n", "nested dissection (ScalaPart)", ndFill,
		float64(natFill)/float64(ndFill))

	// The separator that drove the top split.
	res, err := core.PartitionChecked(g, 8, core.DefaultOptions(7))
	if err != nil {
		fmt.Fprintln(os.Stderr, "ordering:", err)
		os.Exit(1)
	}
	labels := order.VertexSeparator(g, res.Part)
	sep := 0
	for _, l := range labels {
		if l == 2 {
			sep++
		}
	}
	fmt.Printf("\ntop-level: edge separator %d, vertex separator %d (König reduction)\n",
		res.Cut, sep)
	fmt.Println("For a sqrt(n)-separator family, nested dissection gives O(n log n)")
	fmt.Println("fill versus O(n^1.5) for the banded natural order — the gap above.")
}
