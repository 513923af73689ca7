package order

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// TestVertexSeparatorSeparates: removing the separator must leave no
// edge between side-0 and side-1 vertices.
func TestVertexSeparatorSeparates(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g := gen.DelaunayRandom(3000, seed)
		res, err := core.PartitionChecked(g.G, 8, core.DefaultOptions(seed))
		if err != nil {
			t.Fatal(err)
		}
		labels := VertexSeparator(g.G, res.Part)
		var sepSize int
		for u := int32(0); u < int32(g.G.NumVertices()); u++ {
			if labels[u] == 2 {
				sepSize++
				continue
			}
			for _, v := range g.G.Neighbors(u) {
				if labels[v] != 2 && labels[v] != labels[u] {
					t.Fatalf("seed %d: edge %d-%d crosses sides %d/%d", seed, u, v, labels[u], labels[v])
				}
			}
		}
		// König: the vertex separator is at most the edge separator and
		// at least... non-trivial for a connected bisection.
		edgeCut := graph.CutSize(g.G, res.Part)
		if int64(sepSize) > edgeCut {
			t.Fatalf("seed %d: vertex separator %d exceeds edge cut %d", seed, sepSize, edgeCut)
		}
		if sepSize == 0 && edgeCut > 0 {
			t.Fatalf("seed %d: empty separator with non-empty cut", seed)
		}
	}
}

// TestVertexSeparatorIsMinimumOnPath: a path's single cut edge yields a
// one-vertex separator.
func TestVertexSeparatorIsMinimumOnPath(t *testing.T) {
	b := graph.NewBuilder(6)
	for i := 0; i < 5; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g := b.Build()
	part := []int32{0, 0, 0, 1, 1, 1}
	labels := VertexSeparator(g, part)
	count := 0
	for _, l := range labels {
		if l == 2 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("separator size %d, want 1 (labels %v)", count, labels)
	}
}

// TestNestedDissectionPermutation: the ordering is a permutation and
// beats the natural order's fill on a grid (the classic result).
func TestNestedDissectionBeatsNaturalOrder(t *testing.T) {
	g := gen.Grid2D(28, 28)
	perm, err := NestedDissection(g.G, 4, core.DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, g.G.NumVertices())
	for _, v := range perm {
		if seen[v] {
			t.Fatalf("vertex %d appears twice", v)
		}
		seen[v] = true
	}
	if len(perm) != g.G.NumVertices() {
		t.Fatalf("perm length %d", len(perm))
	}
	natural := make([]int32, g.G.NumVertices())
	for i := range natural {
		natural[i] = int32(i)
	}
	ndFill := FillIn(g.G, perm)
	natFill := FillIn(g.G, natural)
	if ndFill >= natFill {
		t.Fatalf("nested dissection fill %d not better than natural %d", ndFill, natFill)
	}
}

// TestFillInPath: a path eliminated end-to-end has zero fill beyond the
// original edges (n-1 sub-diagonal entries).
func TestFillInPath(t *testing.T) {
	b := graph.NewBuilder(10)
	for i := 0; i < 9; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	g := b.Build()
	perm := make([]int32, 10)
	for i := range perm {
		perm[i] = int32(i)
	}
	if f := FillIn(g, perm); f != 9 {
		t.Fatalf("path fill %d, want 9", f)
	}
}

// TestFillInStarWorstFirst: eliminating a star's hub first fills the
// whole clique: (n-1) + C(n-1,2)... symbolic row counts: hub row has
// n-1 entries; each leaf then connects to all later leaves.
func TestFillInStarOrders(t *testing.T) {
	n := 8
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	g := b.Build()
	hubFirst := []int32{0, 1, 2, 3, 4, 5, 6, 7}
	hubLast := []int32{1, 2, 3, 4, 5, 6, 7, 0}
	if f1, f2 := FillIn(g, hubFirst), FillIn(g, hubLast); f1 <= f2 {
		t.Fatalf("hub-first fill %d should exceed hub-last %d", f1, f2)
	}
	if f := FillIn(g, hubLast); f != int64(n-1) {
		t.Fatalf("hub-last fill %d, want %d", FillIn(g, hubLast), n-1)
	}
}

func TestMinDegreeOrderIsPermutation(t *testing.T) {
	g := gen.RandomGeometric(200, 0.1, 4).G
	ord := minDegreeOrder(g)
	seen := make([]bool, g.NumVertices())
	for _, v := range ord {
		if seen[v] {
			t.Fatalf("repeat %d", v)
		}
		seen[v] = true
	}
}

// TestNestedDissectionRejectsBadWorldSize: a world size below one or a
// negative host width is an error, even on a graph small enough to skip
// partitioning.
func TestNestedDissectionRejectsBadWorldSize(t *testing.T) {
	for _, n := range []int{4, 28} {
		g := gen.Grid2D(n, n)
		for _, p := range []int{0, -5} {
			if _, err := NestedDissection(g.G, p, core.DefaultOptions(1)); err == nil {
				t.Fatalf("%dx%d grid, p=%d: no error", n, n, p)
			}
		}
		opt := core.DefaultOptions(1)
		opt.Model.Workers = -1
		if _, err := NestedDissection(g.G, 4, opt); err == nil || !strings.Contains(err.Error(), "order: host width") {
			t.Fatalf("%dx%d grid, Model.Workers=-1: error %v, want the order host-width error", n, n, err)
		}
	}
}
