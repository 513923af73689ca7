package core

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// mustPartition is PartitionChecked for tests: a returned error fails t.
func mustPartition(t testing.TB, g *graph.Graph, p int, opt Options) *Result {
	t.Helper()
	res, err := PartitionChecked(g, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// withFullCut switches the full-cut pass on at the round count
// -refine full selects.
func withFullCut(opt Options) Options {
	opt.Partition.FullCutRounds = geopart.FullRefineRounds
	return opt
}

// TestScalaPartGrid runs the full pipeline on a grid across rank counts
// and checks that the produced bisection is valid, balanced, and far
// better than a random cut (a 48x48 grid has ~4500 edges; a decent
// geometric bisection cuts well under 200).
func TestScalaPartGrid(t *testing.T) {
	g := gen.Grid2D(48, 48)
	for _, p := range []int{1, 4, 16} {
		res := mustPartition(t, g.G, p, DefaultOptions(42))
		if got := graph.CutSize(g.G, res.Part); got != res.Cut {
			t.Fatalf("p=%d: reported cut %d but partition cuts %d", p, res.Cut, got)
		}
		if imb := graph.Imbalance(g.G, res.Part, 2); imb > 0.06 {
			t.Fatalf("p=%d: imbalance %.3f too high", p, imb)
		}
		if res.Cut <= 0 || res.Cut > 500 {
			t.Fatalf("p=%d: implausible cut %d (grid optimum ~48)", p, res.Cut)
		}
		if res.Cut > res.CutBefore {
			t.Fatalf("p=%d: refinement worsened cut %d -> %d", p, res.CutBefore, res.Cut)
		}
		if res.Times.Total <= 0 || res.Times.Embed <= 0 {
			t.Fatalf("p=%d: missing timings %+v", p, res.Times)
		}
		// Each phase max can come from a different rank, so the sum may
		// exceed the total slightly, but never by much.
		sum := res.Times.Coarsen + res.Times.Embed + res.Times.Partition
		if sum > res.Times.Total*1.15 {
			t.Fatalf("p=%d: phase times %.3g far exceed total %.3g", p, sum, res.Times.Total)
		}
	}
}

// TestScalaPartDeterminism: cut and partition must not depend on
// scheduling.
func TestScalaPartDeterminism(t *testing.T) {
	g := gen.DelaunayRandom(2000, 9)
	a := mustPartition(t, g.G, 8, DefaultOptions(5))
	b := mustPartition(t, g.G, 8, DefaultOptions(5))
	if a.Cut != b.Cut {
		t.Fatalf("cuts differ: %d vs %d", a.Cut, b.Cut)
	}
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			t.Fatalf("partition differs at %d", i)
		}
	}
	if math.Abs(a.Times.Total-b.Times.Total) > 1e-12 {
		t.Fatalf("modeled times differ: %v vs %v", a.Times.Total, b.Times.Total)
	}
}

// TestPartitionGeometricAndRCB exercise the coordinate-given entry
// points on a mesh with natural coordinates. The Zoltan-faithful RCB
// clock charges RCB's median iterations and coordinate migration once
// per recursion level, so at P > 1 SP-PG7-NL is the cheaper of the two
// (about 2× at P = 8 on this graph), as in EXPERIMENTS.md § "The
// quality layer". At P = 1 the two clocks tie within 1%, so no
// ordering is asserted there.
func TestPartitionGeometricAndRCB(t *testing.T) {
	g := gen.DelaunayRandom(4000, 3)
	for _, p := range []int{1, 8} {
		spr, err := PartitionGeometricChecked(g.G, g.Coords, p, geopart.DefaultParallelConfig(), mpi.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		if got := graph.CutSize(g.G, spr.Part); got != spr.Cut {
			t.Fatalf("SP-PG7-NL p=%d: cut mismatch %d vs %d", p, spr.Cut, got)
		}
		if spr.Imbalance > 0.06 {
			t.Fatalf("SP-PG7-NL p=%d: imbalance %.3f", p, spr.Imbalance)
		}
		rcb, err := RCBParallelChecked(g.G, g.Coords, p, mpi.DefaultModel())
		if err != nil {
			t.Fatal(err)
		}
		if got := graph.CutSize(g.G, rcb.Part); got != rcb.Cut {
			t.Fatalf("RCB p=%d: cut mismatch %d vs %d", p, rcb.Cut, got)
		}
		if p > 1 && spr.Times.Total >= rcb.Times.Total {
			t.Fatalf("p=%d: SP-PG7-NL (%.3g) should be cheaper than RCB (%.3g)", p, spr.Times.Total, rcb.Times.Total)
		}
	}
}
