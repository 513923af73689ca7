package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/hostpar"
)

// TestHighPEnginesBitIdentical extends the bit-identity contract to the
// high-P machinery: the fan-in collective rendezvous, the ring
// mailboxes and the rank arena are pure host-performance machinery, so
// the full pipeline must produce bit-identical cuts, partitions,
// virtual clocks and message traffic however the host runs it — at the
// suite's upper communicator sizes too, where the collective finisher's
// chunked scanMax (communicators of at least faninChunkMin ranks with
// more than one worker) and the pending-ring growth paths engage. The
// reference is one worker on one runtime thread; the run it is compared
// with has eight workers on four threads, so the ranks arrive at each
// rendezvous in a different order and the finisher chunks its scans.
// mpi.TestCollectiveClocksGolden pins the collective clocks themselves.
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
			defer hostpar.SetWorkers(hostpar.SetWorkers(1))
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			ref := mustPartition(t, g.G, tc.p, DefaultOptions(42))
			hostpar.SetWorkers(8)
			runtime.GOMAXPROCS(4)
			got := mustPartition(t, g.G, tc.p, DefaultOptions(42))
			requireIdentical(t, "workers=8 GOMAXPROCS=4", got, ref)
		})
	}
}
