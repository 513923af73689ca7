package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/hostpar"
	"repro/internal/mpi"
	"repro/internal/refine"
)

// TestBatchingBitIdentical runs the full pipeline with strip and
// full-cut refinement under batched replay with eight hostpar workers
// and requires the outcome of a one-worker goroutine-replay run at
// every world size: same cut, same per-vertex partition, same per-rank
// virtual clocks and message traffic. The geometric partitioner's
// sample, candidate set and gathered records are derived once per
// collective and shared by every rank, whichever rank finishes the
// collective; any visible difference means a derived value depended on
// that rank or a rank wrote into a shared value.
func TestBatchingBitIdentical(t *testing.T) {
	g := gen.Grid2D(40, 40)
	defer refine.SetFullCut(refine.SetFullCut(true))
	for _, p := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			defer mpi.SetReplayMode(mpi.SetReplayMode(mpi.ReplayGoroutine))
			defer hostpar.SetWorkers(hostpar.SetWorkers(1))
			ref := Partition(g.G, p, DefaultOptions(42))
			mpi.SetReplayMode(mpi.ReplayBatched)
			hostpar.SetWorkers(8)
			got := Partition(g.G, p, DefaultOptions(42))
			if got.Cut != ref.Cut {
				t.Errorf("cut differs: batched %d, one worker %d", got.Cut, ref.Cut)
			}
			if len(got.Part) != len(ref.Part) {
				t.Fatalf("partition length differs: %d vs %d", len(got.Part), len(ref.Part))
			}
			for v := range got.Part {
				if got.Part[v] != ref.Part[v] {
					t.Fatalf("vertex %d assigned to part %d batched, %d one worker", v, got.Part[v], ref.Part[v])
				}
			}
			if len(got.Stats) != len(ref.Stats) {
				t.Fatalf("stats length differs: %d vs %d", len(got.Stats), len(ref.Stats))
			}
			for r := range got.Stats {
				a, b := got.Stats[r], ref.Stats[r]
				if a.Time != b.Time || a.CommTime != b.CommTime {
					t.Errorf("rank %d clocks differ: batched (%v, %v) one worker (%v, %v)",
						r, a.Time, a.CommTime, b.Time, b.CommTime)
				}
				if a.Messages != b.Messages || a.BytesSent != b.BytesSent {
					t.Errorf("rank %d traffic differs: batched (%d msg, %d B) one worker (%d msg, %d B)",
						r, a.Messages, a.BytesSent, b.Messages, b.BytesSent)
				}
			}
		})
	}
}
