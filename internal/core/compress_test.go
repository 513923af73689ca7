package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hostpar"
)

// TestCompressedPipelineBitIdentical runs the full pipeline on the
// plain CSR graph and on its delta/varint compressed representation
// (graph.Compress) at every world size and several worker counts, and
// requires bit-identical outcomes: same cut, same per-vertex partition,
// same per-rank virtual clocks and message traffic. The compressed
// path replaces raw Adjncy/EWgt indexing with Cursor decode — a
// rearrangement of the same reads, never of the arithmetic — so any
// visible difference means a decoder produced a different row or a
// kernel charged a different modeled cost. (This is the same contract
// TestHierarchyBitIdentical pins for the fork-join kernels and
// TestBatchingBitIdentical for the geometric-candidate kernel.)
func TestCompressedPipelineBitIdentical(t *testing.T) {
	// Large enough that the hierarchy crosses the parallel size gates on
	// the finer levels, matching TestHierarchyBitIdentical's regime.
	g := gen.Grid2D(96, 96)
	cg := graph.Compress(g.G)
	if !cg.Compressed() || g.G.Compressed() {
		t.Fatal("Compress must wrap without mutating the plain graph")
	}
	for _, p := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			plain := mustPartition(t, g.G, p, DefaultOptions(42))
			for _, w := range []int{1, 2, 8} {
				defer hostpar.SetWorkers(hostpar.SetWorkers(w))
				comp := mustPartition(t, cg, p, DefaultOptions(42))
				requireIdentical(t, fmt.Sprintf("workers=%d compressed vs plain", w), comp, plain)
			}
		})
	}
}
