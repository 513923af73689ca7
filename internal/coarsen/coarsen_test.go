package coarsen

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestHeavyEdgeMatchIsMatching(t *testing.T) {
	g := gen.Grid2D(20, 20).G
	rng := rand.New(rand.NewSource(1))
	match := HeavyEdgeMatch(g, rng, nil)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		u := match[v]
		if match[u] != v {
			t.Fatalf("match not symmetric: %d->%d->%d", v, u, match[u])
		}
		if u != v {
			// Partner must be an actual neighbour.
			found := false
			for _, nb := range g.Neighbors(v) {
				if nb == u {
					found = true
				}
			}
			if !found {
				t.Fatalf("%d matched to non-neighbour %d", v, u)
			}
		}
	}
}

func TestHeavyEdgeMatchPrefersHeavy(t *testing.T) {
	// Star of 3 with one heavy edge: the heavy edge is chosen whenever
	// vertex 0 or 1 is visited first (probability 2/3 over the random
	// visit order); only when vertex 2 leads does the light edge match.
	b := graph.NewBuilder(3)
	b.AddWeightedEdge(0, 1, 10)
	b.AddWeightedEdge(0, 2, 1)
	g := b.Build()
	heavy := 0
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		match := HeavyEdgeMatch(g, rng, nil)
		if match[0] == 1 {
			heavy++
		}
	}
	// Expect ~2/3 of 50 = 33; assert comfortably above chance (25).
	if heavy < 28 {
		t.Fatalf("heavy edge matched only %d/50 times", heavy)
	}
}

func TestContractConservesWeight(t *testing.T) {
	g := gen.DelaunayRandom(2000, 5).G
	rng := rand.New(rand.NewSource(3))
	match := HeavyEdgeMatch(g, rng, nil)
	cg, f2c := Contract(g, match)
	if cg.TotalVertexWeight() != g.TotalVertexWeight() {
		t.Fatalf("vertex weight changed: %d -> %d", g.TotalVertexWeight(), cg.TotalVertexWeight())
	}
	if cg.NumVertices() >= g.NumVertices() {
		t.Fatal("no shrinkage")
	}
	// Edge weight between coarse parts is conserved for any partition
	// pulled back through the map: check with a random coarse split.
	cpart := make([]int32, cg.NumVertices())
	for i := range cpart {
		cpart[i] = int32(rand.New(rand.NewSource(int64(i))).Intn(2))
	}
	fpart := ProjectPartition(f2c, cpart)
	if graph.CutSize(g, fpart) != graph.CutSize(cg, cpart) {
		t.Fatalf("cut not conserved: fine %d coarse %d",
			graph.CutSize(g, fpart), graph.CutSize(cg, cpart))
	}
	if err := cg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildHierarchyShape(t *testing.T) {
	g := gen.DelaunayRandom(20000, 7).G
	h := BuildHierarchy(g, 64, Options{Seed: 2})
	if len(h.Levels) < 3 {
		t.Fatalf("only %d levels", len(h.Levels))
	}
	if h.Levels[0].G != g || h.Levels[0].Ranks != 64 {
		t.Fatal("level 0 wrong")
	}
	for i := 0; i+1 < len(h.Levels); i++ {
		a, b := h.Levels[i], h.Levels[i+1]
		ratio := float64(b.G.NumVertices()) / float64(a.G.NumVertices())
		if ratio > 0.6 {
			t.Fatalf("level %d shrank only by %.2f", i, ratio)
		}
		if b.Ranks > a.Ranks {
			t.Fatalf("ranks grew %d -> %d", a.Ranks, b.Ranks)
		}
		if b.G.TotalVertexWeight() != g.TotalVertexWeight() {
			t.Fatalf("level %d lost weight", i+1)
		}
		// ToCoarse maps into the next level.
		for v, cv := range a.ToCoarse {
			if int(cv) >= b.G.NumVertices() {
				t.Fatalf("level %d: vertex %d maps to %d out of range", i, v, cv)
			}
		}
	}
	coarsest := h.Coarsest()
	if coarsest.G.NumVertices() > 800*2 {
		t.Fatalf("coarsest still %d vertices", coarsest.G.NumVertices())
	}
}

func TestChildrenOfInvertsToCoarse(t *testing.T) {
	g := gen.Grid2D(40, 40).G
	h := BuildHierarchy(g, 16, Options{Seed: 5})
	for li := 0; li+1 < len(h.Levels); li++ {
		lev := &h.Levels[li]
		seen := make([]bool, lev.G.NumVertices())
		for cv := int32(0); cv < int32(h.Levels[li+1].G.NumVertices()); cv++ {
			for _, v := range lev.ChildrenOf(cv) {
				if lev.ToCoarse[v] != cv {
					t.Fatalf("level %d: child %d of %d maps to %d", li, v, cv, lev.ToCoarse[v])
				}
				if seen[v] {
					t.Fatalf("level %d: vertex %d listed twice", li, v)
				}
				seen[v] = true
			}
		}
		for v, s := range seen {
			if !s {
				t.Fatalf("level %d: vertex %d not listed as any child", li, v)
			}
		}
	}
}

func TestHierarchyOffsetsPartition(t *testing.T) {
	g := gen.DelaunayRandom(5000, 9).G
	for _, p := range []int{1, 4, 32} {
		h := BuildHierarchy(g, p, Options{Seed: 1})
		for li, lev := range h.Levels {
			if len(lev.Offsets) != lev.Ranks+1 {
				t.Fatalf("p=%d level %d: %d offsets for %d ranks", p, li, len(lev.Offsets), lev.Ranks)
			}
			if lev.Offsets[0] != 0 || int(lev.Offsets[lev.Ranks]) != lev.G.NumVertices() {
				t.Fatalf("p=%d level %d: offsets do not span", p, li)
			}
			for r := 0; r < lev.Ranks; r++ {
				if lev.Offsets[r+1] < lev.Offsets[r] {
					t.Fatalf("p=%d level %d: offsets not monotone", p, li)
				}
			}
		}
	}
}

func TestVertsPerRankCap(t *testing.T) {
	g := gen.Grid2D(16, 16).G // 256 vertices
	h := BuildHierarchy(g, 64, Options{Seed: 1, VertsPerRank: 32})
	if h.Levels[0].Ranks != 256/32 {
		t.Fatalf("level 0 ranks = %d, want %d", h.Levels[0].Ranks, 256/32)
	}
}

func TestStepsPerLevelOne(t *testing.T) {
	g := gen.DelaunayRandom(4000, 3).G
	h2 := BuildHierarchy(g, 4, Options{Seed: 1, StepsPerLevel: 2})
	h1 := BuildHierarchy(g, 4, Options{Seed: 1, StepsPerLevel: 1, RankDecay: 1})
	if len(h1.Levels) <= len(h2.Levels) {
		t.Fatalf("halving hierarchy (%d levels) should be deeper than quartering (%d)",
			len(h1.Levels), len(h2.Levels))
	}
	for _, lev := range h1.Levels {
		if lev.Ranks != 4 {
			t.Fatalf("RankDecay 1 should keep 4 ranks, got %d", lev.Ranks)
		}
	}
}

// Contract builds the coarse graph induced by match: one coarse vertex
// per matched pair or unmatched singleton, vertex weights summed, and
// parallel edges between coarse vertices merged with accumulated
// weights. It returns the coarse graph and the fine→coarse map.
func Contract(g *graph.Graph, match []int32) (*graph.Graph, []int32) {
	cg, f2c, _ := contractBlocked(g, match, []int32{0, int32(g.NumVertices())})
	return cg, f2c
}

// Coarsest returns the last level.
func (h *Hierarchy) Coarsest() *Level { return &h.Levels[len(h.Levels)-1] }

// ProjectPartition carries a partition of the coarse level back to the
// fine level via the ToCoarse map.
func ProjectPartition(toCoarse []int32, coarsePart []int32) []int32 {
	fine := make([]int32, len(toCoarse))
	for v, cv := range toCoarse {
		fine[v] = coarsePart[cv]
	}
	return fine
}
