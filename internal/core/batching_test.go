package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/hostpar"
)

// TestBatchingBitIdentical runs the full pipeline with strip and
// full-cut refinement on eight hostpar workers and requires the outcome
// of a one-worker run at every world size: same cut, same per-vertex
// partition, same per-rank virtual clocks and message traffic. The
// geometric partitioner's sample, candidate set and gathered records
// are derived once per collective and shared by every rank, whichever
// rank finishes the collective; any visible difference means a derived
// value depended on that rank or a rank wrote into a shared value.
func TestBatchingBitIdentical(t *testing.T) {
	g := gen.Grid2D(40, 40)
	for _, p := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			defer hostpar.SetWorkers(hostpar.SetWorkers(1))
			ref := mustPartition(t, g.G, p, withFullCut(DefaultOptions(42)))
			hostpar.SetWorkers(8)
			got := mustPartition(t, g.G, p, withFullCut(DefaultOptions(42)))
			requireIdentical(t, "workers=8", got, ref)
		})
	}
}
