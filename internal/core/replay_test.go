package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/geopart"
	"repro/internal/hostpar"
	"repro/internal/mpi"
)

// replayOptions is DefaultOptions(seed) under the given replay mode.
func replayOptions(seed int64, mode mpi.ReplayMode) Options {
	opt := DefaultOptions(seed)
	opt.Model.Replay = mode
	return opt
}

// withFullCut switches the full-cut pass on at the round count
// -refine full selects.
func withFullCut(opt Options) Options {
	opt.Partition.FullCutRounds = geopart.FullRefineRounds
	return opt
}

// TestReplayModesBitIdentical is the PR 7 contract: the host-parallel
// embedding kernels and the batched rank-stepping scheduler are pure
// host-performance features, so the full pipeline must produce
// bit-identical cuts, partitions, virtual clocks, and message traffic
// across worker counts 1/2/8 and both replay modes — including batched
// worlds where simulated P far exceeds the worker batch. The reference
// is one hostpar worker under goroutine-per-rank replay.
func TestReplayModesBitIdentical(t *testing.T) {
	g := gen.Grid2D(96, 96)
	for _, p := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			defer hostpar.SetWorkers(hostpar.SetWorkers(1))
			serial := Partition(g.G, p, DefaultOptions(42))
			for _, mode := range []mpi.ReplayMode{mpi.ReplayGoroutine, mpi.ReplayBatched} {
				for _, w := range []int{1, 2, 8} {
					if mode == mpi.ReplayGoroutine && w == 1 {
						continue // the reference configuration
					}
					hostpar.SetWorkers(w)
					par := Partition(g.G, p, replayOptions(42, mode))
					tag := fmt.Sprintf("replay=%s workers=%d", mode, w)
					if par.Cut != serial.Cut {
						t.Errorf("%s: cut differs: got %d serial %d", tag, par.Cut, serial.Cut)
					}
					if len(par.Part) != len(serial.Part) {
						t.Fatalf("%s: partition length differs: %d vs %d", tag, len(par.Part), len(serial.Part))
					}
					for v := range par.Part {
						if par.Part[v] != serial.Part[v] {
							t.Fatalf("%s: vertex %d assigned to part %d, serial %d",
								tag, v, par.Part[v], serial.Part[v])
						}
					}
					if len(par.Stats) != len(serial.Stats) {
						t.Fatalf("%s: stats length differs: %d vs %d", tag, len(par.Stats), len(serial.Stats))
					}
					for r := range par.Stats {
						a, b := par.Stats[r], serial.Stats[r]
						if a.Time != b.Time || a.CommTime != b.CommTime {
							t.Errorf("%s rank %d clocks differ: got (%v, %v) serial (%v, %v)",
								tag, r, a.Time, a.CommTime, b.Time, b.CommTime)
						}
						if a.Messages != b.Messages || a.BytesSent != b.BytesSent {
							t.Errorf("%s rank %d traffic differs: got (%d msg, %d B) serial (%d msg, %d B)",
								tag, r, a.Messages, a.BytesSent, b.Messages, b.BytesSent)
						}
					}
				}
			}
		})
	}
}
