package core

import (
	"fmt"
	"testing"

	"repro/internal/gen"
	"repro/internal/geopart"
	"repro/internal/hostpar"
)

// withFullCut switches the full-cut pass on at the round count
// -refine full selects.
func withFullCut(opt Options) Options {
	opt.Partition.FullCutRounds = geopart.FullRefineRounds
	return opt
}

// requireIdentical fails t unless got and ref agree bit for bit: cut,
// imbalance, per-vertex partition, and every rank's virtual clocks and
// message traffic.
func requireIdentical(t *testing.T, tag string, got, ref *Result) {
	t.Helper()
	if got.Cut != ref.Cut || got.Imbalance != ref.Imbalance {
		t.Errorf("%s: cut/imbalance differ: got %d/%v, want %d/%v", tag, got.Cut, got.Imbalance, ref.Cut, ref.Imbalance)
	}
	if len(got.Part) != len(ref.Part) {
		t.Fatalf("%s: partition length differs: %d vs %d", tag, len(got.Part), len(ref.Part))
	}
	for v := range got.Part {
		if got.Part[v] != ref.Part[v] {
			t.Fatalf("%s: vertex %d assigned to part %d, want %d", tag, v, got.Part[v], ref.Part[v])
		}
	}
	if len(got.Stats) != len(ref.Stats) {
		t.Fatalf("%s: stats length differs: %d vs %d", tag, len(got.Stats), len(ref.Stats))
	}
	for r := range got.Stats {
		a, b := got.Stats[r], ref.Stats[r]
		if a.Time != b.Time || a.CommTime != b.CommTime {
			t.Errorf("%s rank %d clocks differ: got (%v, %v), want (%v, %v)",
				tag, r, a.Time, a.CommTime, b.Time, b.CommTime)
		}
		if a.Messages != b.Messages || a.BytesSent != b.BytesSent {
			t.Errorf("%s rank %d traffic differs: got (%d msg, %d B), want (%d msg, %d B)",
				tag, r, a.Messages, a.BytesSent, b.Messages, b.BytesSent)
		}
	}
}

// TestHierarchyBitIdentical runs the full pipeline with the fork-join
// coarsening kernels (parallel contraction, parallel CSR builder,
// chunked map inversion) and the host-parallel embedding kernels at
// several worker counts, with one worker as the reference, and requires
// bit-identical outcomes at every world size: same cut, same per-vertex
// partition, same per-rank virtual clocks and message traffic. Host
// parallelism is a rearrangement of the same arithmetic over statically
// assigned chunks; any visible difference means a kernel changed an
// evaluation order or a modeled charge. The kernels' single-threaded
// oracles live in the coarsen and graph package tests.
func TestHierarchyBitIdentical(t *testing.T) {
	// Large enough that hierarchy construction forks (contraction chunks
	// >= 1024 vertices, builder >= 4096 records) on the finer levels.
	g := gen.Grid2D(96, 96)
	for _, p := range []int{1, 4, 16, 64} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			defer hostpar.SetWorkers(hostpar.SetWorkers(1))
			ref := mustPartition(t, g.G, p, DefaultOptions(42))
			for _, w := range []int{2, 8} {
				hostpar.SetWorkers(w)
				got := mustPartition(t, g.G, p, DefaultOptions(42))
				requireIdentical(t, fmt.Sprintf("workers=%d", w), got, ref)
			}
		})
	}
}
