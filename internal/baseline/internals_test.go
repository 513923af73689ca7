package baseline

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestGreedyGrowBalancedAndContiguous(t *testing.T) {
	g := gen.Grid2D(20, 20).G
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		side := greedyGrow(g, rng)
		var w [2]int64
		for v, s := range side {
			w[s] += int64(g.VertexWeight(int32(v)))
		}
		total := w[0] + w[1]
		if w[0] < total*45/100 || w[0] > total*55/100 {
			t.Fatalf("trial %d: grow stopped at %d of %d", trial, w[0], total)
		}
		// Side 0 grew by BFS, so it must be connected.
		sub := make([]int32, 0, w[0])
		for v, s := range side {
			if s == 0 {
				sub = append(sub, int32(v))
			}
		}
		indG, _ := graph.InducedSubgraph(g, sub)
		if _, comps := graph.Components(indG); comps != 1 {
			t.Fatalf("trial %d: grown side has %d components", trial, comps)
		}
	}
}

func TestGreedyGrowDisconnectedGraph(t *testing.T) {
	b := graph.NewBuilder(20)
	for i := 0; i < 9; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	for i := 10; i < 19; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g := b.Build()
	side := greedyGrow(g, rand.New(rand.NewSource(2)))
	count0 := 0
	for _, s := range side {
		if s == 0 {
			count0++
		}
	}
	if count0 < 8 || count0 > 12 {
		t.Fatalf("disconnected growth unbalanced: %d of 20", count0)
	}
}

func TestCutOfMatchesGraphCutSize(t *testing.T) {
	g := gen.DelaunayRandom(1000, 3).G
	rng := rand.New(rand.NewSource(4))
	side := make([]int8, g.NumVertices())
	part := make([]int32, g.NumVertices())
	for i := range side {
		side[i] = int8(rng.Intn(2))
		part[i] = int32(side[i])
	}
	if cutOf(g, side) != graph.CutSize(g, part) {
		t.Fatal("cutOf disagrees with graph.CutSize")
	}
}

// TestRefinePassesImproveQuality: more refinement passes must not make
// cuts worse on average over a few seeds.
func TestRefinePassesImproveQuality(t *testing.T) {
	var few, many int64
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.DelaunayRandom(4000, seed)
		cfgFew := ParMetisLike(seed)
		cfgFew.RefinePasses = 1
		cfgMany := ParMetisLike(seed)
		cfgMany.RefinePasses = 8
		few += mustPartition(t, g.G, 8, cfgFew).Cut
		many += mustPartition(t, g.G, 8, cfgMany).Cut
	}
	if many > few*105/100 {
		t.Fatalf("8 passes (%d) worse than 1 pass (%d)", many, few)
	}
}

// TestBaselineBalanceUnderRefinement: refinement must never blow the
// balance tolerance.
func TestBaselineBalanceUnderRefinement(t *testing.T) {
	for _, cfg := range []Config{ParMetisLike(5), PtScotchLike(5)} {
		for _, p := range []int{2, 16, 128} {
			g := gen.RandomGeometric(5000, 0.025, 5)
			res := mustPartition(t, g.G, p, cfg)
			if res.Imbalance > 0.08 {
				t.Fatalf("%s p=%d: imbalance %.3f", cfg.Name, p, res.Imbalance)
			}
		}
	}
}

// TestBaselineTimesGrowWithP at high rank counts (the paper's central
// observation about multilevel partitioners).
func TestBaselineTimesGrowWithP(t *testing.T) {
	g := gen.DelaunayRandom(20000, 9)
	for _, cfg := range []Config{ParMetisLike(1), PtScotchLike(1)} {
		t64 := mustPartition(t, g.G, 64, cfg).Total
		t1024 := mustPartition(t, g.G, 1024, cfg).Total
		if t1024 <= t64 {
			t.Fatalf("%s: time at P=1024 (%v) should exceed P=64 (%v) for a small graph",
				cfg.Name, t1024, t64)
		}
	}
}

func TestPtScotchSlowerButBetterOrEqual(t *testing.T) {
	g := gen.DelaunayRandom(15000, 12)
	pm := mustPartition(t, g.G, 64, ParMetisLike(2))
	pts := mustPartition(t, g.G, 64, PtScotchLike(2))
	if pts.Total <= pm.Total {
		t.Fatalf("Pt-Scotch (%v) should cost more than ParMetis (%v)", pts.Total, pm.Total)
	}
}
