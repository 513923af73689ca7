package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// TestHighPEnginesBitIdentical extends the replay-mode contract to the
// high-P machinery: the fan-in collective rendezvous, the ring
// mailboxes, and the rank arena are pure host-performance machinery, so
// the full pipeline must produce bit-identical cuts, partitions,
// virtual clocks, and message traffic under both replay modes — at the
// suite's upper communicator sizes, where the fan-in chunked scan and
// the pending-ring growth paths actually engage. The reference is
// goroutine-per-rank replay; mpi.TestCollectiveClocksGolden pins the
// collective clocks themselves.
func TestHighPEnginesBitIdentical(t *testing.T) {
	cases := []struct {
		p    int
		side int
	}{
		{1, 96}, {4, 96}, {16, 96}, {64, 96}, {256, 160}, {1024, 256},
	}
	for _, tc := range cases {
		if tc.p > 64 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("P%d", tc.p), func(t *testing.T) {
			g := gen.Grid2D(tc.side, tc.side)
			ref := Partition(g.G, tc.p, DefaultOptions(42))
			got := Partition(g.G, tc.p, replayOptions(42, mpi.ReplayBatched))
			if got.Cut != ref.Cut {
				t.Errorf("batched replay: cut differs: got %d goroutine %d", got.Cut, ref.Cut)
			}
			for v := range got.Part {
				if got.Part[v] != ref.Part[v] {
					t.Fatalf("batched replay: vertex %d assigned to part %d, goroutine %d",
						v, got.Part[v], ref.Part[v])
				}
			}
			for r := range got.Stats {
				a, b := got.Stats[r], ref.Stats[r]
				if a.Time != b.Time || a.CommTime != b.CommTime {
					t.Errorf("batched replay rank %d clocks differ: got (%v, %v) goroutine (%v, %v)",
						r, a.Time, a.CommTime, b.Time, b.CommTime)
				}
				if a.Messages != b.Messages || a.BytesSent != b.BytesSent {
					t.Errorf("batched replay rank %d traffic differs: got (%d msg, %d B) goroutine (%d msg, %d B)",
						r, a.Messages, a.BytesSent, b.Messages, b.BytesSent)
				}
			}
		})
	}
}
