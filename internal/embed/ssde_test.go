package embed

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/graph"
)

// TestSSDEGridGeometry: SSDE of a rectangular grid must recover the
// elongated axis (the dominant spectral direction is the long side).
func TestSSDEGridGeometry(t *testing.T) {
	g := gen.Grid2D(12, 48)
	coords := SSDELayout(g.G, 2)
	r := geometry.BoundingRect(coords)
	if r.Width() < 2*r.Height() {
		t.Fatalf("grid aspect not recovered: %v x %v", r.Width(), r.Height())
	}
	// Neighbours must be near: mean edge length well below the span.
	var sum float64
	for u := int32(0); u < int32(g.G.NumVertices()); u++ {
		for _, v := range g.G.Neighbors(u) {
			if u < v {
				sum += coords[u].Dist(coords[v])
			}
		}
	}
	mean := sum / float64(g.G.NumEdges())
	if mean > r.Width()/10 {
		t.Fatalf("mean edge %v vs span %v: no locality", mean, r.Width())
	}
}

func TestSSDETinyAndDisconnected(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3) // disconnected, vertex 4 isolated
	g := b.Build()
	coords := SSDELayout(g, 1)
	if len(coords) != 5 {
		t.Fatalf("got %d coords", len(coords))
	}
	for _, c := range coords {
		if c.X != c.X || c.Y != c.Y {
			t.Fatal("NaN coordinate")
		}
	}
	if SSDELayout(&graph.Graph{XAdj: []int32{0}}, 0) != nil {
		t.Fatal("empty graph should give nil")
	}
}

func TestBFSDistances(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	d := bfs(g, 0)
	want := []int32{0, 1, 2, 3}
	for i, w := range want {
		if d[i] != w {
			t.Fatalf("d[%d]=%d want %d", i, d[i], w)
		}
	}
	if d[4] <= 4 {
		t.Fatal("unreachable vertex got finite distance")
	}
}
