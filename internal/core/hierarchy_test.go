package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/hostpar"
)

// TestHierarchyBitIdentical runs the full pipeline with the fork-join
// coarsening kernels (parallel contraction, parallel CSR builder,
// chunked map inversion) at several worker counts, with one worker as
// the reference, and requires bit-identical outcomes at every world
// size: same cut, same per-vertex partition, same per-rank virtual
// clocks and message traffic. Host parallelism is a rearrangement of
// the same arithmetic over statically assigned chunks; any visible
// difference means a kernel changed an evaluation order or a modeled
// charge. The kernels' single-threaded oracles live in the coarsen and
// graph package tests.
func TestHierarchyBitIdentical(t *testing.T) {
	// Large enough that hierarchy construction forks (contraction chunks
	// >= 1024 vertices, builder >= 4096 records) on the finer levels.
	g := gen.Grid2D(96, 96)
	for _, p := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			defer hostpar.SetWorkers(hostpar.SetWorkers(1))
			ref := Partition(g.G, p, DefaultOptions(42))
			for _, w := range []int{2, 8} {
				hostpar.SetWorkers(w)
				par := Partition(g.G, p, DefaultOptions(42))
				if par.Cut != ref.Cut {
					t.Errorf("workers %d: cut differs: got %d, 1 worker %d", w, par.Cut, ref.Cut)
				}
				if len(par.Part) != len(ref.Part) {
					t.Fatalf("workers %d: partition length differs: %d vs %d", w, len(par.Part), len(ref.Part))
				}
				for v := range par.Part {
					if par.Part[v] != ref.Part[v] {
						t.Fatalf("workers %d: vertex %d assigned to part %d, 1 worker %d",
							w, v, par.Part[v], ref.Part[v])
					}
				}
				if len(par.Stats) != len(ref.Stats) {
					t.Fatalf("workers %d: stats length differs: %d vs %d", w, len(par.Stats), len(ref.Stats))
				}
				for r := range par.Stats {
					a, b := par.Stats[r], ref.Stats[r]
					if a.Time != b.Time || a.CommTime != b.CommTime {
						t.Errorf("workers %d rank %d clocks differ: got (%v, %v), 1 worker (%v, %v)",
							w, r, a.Time, a.CommTime, b.Time, b.CommTime)
					}
					if a.Messages != b.Messages || a.BytesSent != b.BytesSent {
						t.Errorf("workers %d rank %d traffic differs: got (%d msg, %d B), 1 worker (%d msg, %d B)",
							w, r, a.Messages, a.BytesSent, b.Messages, b.BytesSent)
					}
				}
			}
		})
	}
}
