package core

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestPipelineDegenerateInputs pushes the full ScalaPart pipeline
// through inputs that stress corner cases: tiny graphs, a star (where
// matching stalls), a path, a disconnected graph, and more ranks than
// vertices. Nothing may panic; balance and cut reporting must stay
// consistent.
func TestPipelineDegenerateInputs(t *testing.T) {
	star := func(n int) *graph.Graph {
		b := graph.NewBuilder(n)
		for i := 1; i < n; i++ {
			b.AddEdge(0, int32(i))
		}
		return b.Build()
	}
	pathG := func(n int) *graph.Graph {
		b := graph.NewBuilder(n)
		for i := 0; i+1 < n; i++ {
			b.AddEdge(int32(i), int32(i+1))
		}
		return b.Build()
	}
	disconnected := func() *graph.Graph {
		b := graph.NewBuilder(40)
		for i := 0; i < 19; i++ {
			b.AddEdge(int32(i), int32(i+1))
		}
		for i := 20; i < 39; i++ {
			b.AddEdge(int32(i), int32(i+1))
		}
		return b.Build()
	}
	cases := []struct {
		name string
		g    *graph.Graph
		p    int
	}{
		{"tiny-path-p4", pathG(6), 4},
		{"star-p4", star(50), 4},
		{"star-p16", star(300), 16},
		{"disconnected-p8", disconnected(), 8},
		{"more-ranks-than-verts", pathG(10), 64},
		{"two-vertices", pathG(2), 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := mustPartition(t, tc.g, tc.p, DefaultOptions(7))
			if got := graph.CutSize(tc.g, res.Part); got != res.Cut {
				t.Fatalf("cut mismatch: reported %d actual %d", res.Cut, got)
			}
			if res.Times.Total <= 0 {
				t.Fatal("no time elapsed")
			}
			// Both sides must be populated for n >= 2 (bisection).
			w := graph.PartWeights(tc.g, res.Part, 2)
			if w[0] == 0 || w[1] == 0 {
				t.Fatalf("degenerate bisection: %v", w)
			}
		})
	}
}

// TestPipelineKKTPower: the hub-heavy non-geometric graph class must
// survive the geometric pipeline (the paper's hardest case).
func TestPipelineKKTPower(t *testing.T) {
	g := gen.KKTPower(3000, 44)
	res := mustPartition(t, g.G, 16, DefaultOptions(2))
	if got := graph.CutSize(g.G, res.Part); got != res.Cut {
		t.Fatalf("cut mismatch: %d vs %d", res.Cut, got)
	}
	if res.Imbalance > 0.06 {
		t.Fatalf("imbalance %.3f", res.Imbalance)
	}
}

// TestVertsPerRankFolding: with far more ranks than vertices the
// pipeline folds onto fewer active ranks but must still return a
// partition covering every vertex.
func TestVertsPerRankFolding(t *testing.T) {
	g := gen.Grid2D(20, 20) // 400 vertices
	res := mustPartition(t, g.G, 256, DefaultOptions(3))
	if len(res.Part) != 400 {
		t.Fatalf("partition covers %d vertices", len(res.Part))
	}
	if res.Cut <= 0 || res.Cut > 200 {
		t.Fatalf("implausible cut %d", res.Cut)
	}
}

// TestTimesScaleDown: modeled time at P=64 must be well below P=1 for a
// decently sized graph.
func TestTimesScaleDown(t *testing.T) {
	g := gen.DelaunayRandom(30000, 4)
	t1 := mustPartition(t, g.G, 1, DefaultOptions(5)).Times.Total
	t64 := mustPartition(t, g.G, 64, DefaultOptions(5)).Times.Total
	if t64 > t1/3 {
		t.Fatalf("poor modeled scaling: P=1 %.4fs vs P=64 %.4fs", t1, t64)
	}
}

// TestCutBeforeAfterConsistency: strip refinement may only reduce the
// cut, and CutBefore must match a run with refinement disabled.
func TestCutBeforeAfterConsistency(t *testing.T) {
	g := gen.DelaunayRandom(8000, 6)
	opt := DefaultOptions(9)
	with := mustPartition(t, g.G, 8, opt)
	opt.Partition.Refine = false
	without := mustPartition(t, g.G, 8, opt)
	if with.CutBefore != without.Cut {
		t.Fatalf("CutBefore %d != unrefined cut %d", with.CutBefore, without.Cut)
	}
	if with.Cut > with.CutBefore {
		t.Fatalf("refinement hurt: %d -> %d", with.CutBefore, with.Cut)
	}
}
