package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/hostpar"
)

// TestReplayModesBitIdentical: every world runs one goroutine per rank
// and leaves their interleaving to the Go runtime, so how many ranks
// step at once is a host setting that no modeled outcome may see. The
// test replays the full pipeline with the runtime capped at 1, 2 and 4
// threads — one thread steps the ranks strictly one at a time, as a
// one-slot batched scheduler did — and requires the one-thread cut,
// partition, per-rank virtual clocks and message traffic every time.
// The worker count is held at one so that only rank interleaving
// varies; TestHierarchyBitIdentical sweeps the workers.
func TestReplayModesBitIdentical(t *testing.T) {
	g := gen.Grid2D(96, 96)
	for _, p := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			defer hostpar.SetWorkers(hostpar.SetWorkers(1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			ref := mustPartition(t, g.G, p, DefaultOptions(42))
			for _, procs := range []int{2, 4} {
				runtime.GOMAXPROCS(procs)
				got := mustPartition(t, g.G, p, DefaultOptions(42))
				requireIdentical(t, fmt.Sprintf("GOMAXPROCS=%d", procs), got, ref)
			}
		})
	}
}
