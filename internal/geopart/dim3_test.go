package geopart

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestPartition3DGrid: a 16x16x16 grid's optimal bisection cuts 256
// edges; the geometric partitioner should land within ~2.5x.
func TestPartition3DGrid(t *testing.T) {
	g := gen.Grid3D(16, 16, 16)
	part, st, err := Partition3D(g.G, g.Coords, G30())
	if err != nil {
		t.Fatal(err)
	}
	if got := graph.CutSize(g.G, part); got != st.Cut {
		t.Fatalf("reported %d actual %d", st.Cut, got)
	}
	if st.Cut > 650 {
		t.Fatalf("cut %d too large for a 16^3 grid (optimal 256)", st.Cut)
	}
	if imb := graph.Imbalance(g.G, part, 2); imb > 0.051 {
		t.Fatalf("imbalance %v", imb)
	}
}

func TestPartition3DBeatsRandomOnRGG(t *testing.T) {
	g := gen.RandomGeometric3D(6000, 0.08, 3)
	_, st, err := Partition3D(g.G, g.Coords, G7())
	if err != nil {
		t.Fatal(err)
	}
	if st.Cut <= 0 || int64(st.Cut) > int64(g.G.NumEdges())/4 {
		t.Fatalf("cut %d of %d edges: geometric structure not exploited", st.Cut, g.G.NumEdges())
	}
}

func TestRCBBisect3DExactOnGrid(t *testing.T) {
	g := gen.Grid3D(8, 8, 16) // z is widest: cut a z-plane, 64 edges
	part, st, err := RCBBisect(g.G, g.Coords)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cut != 64 {
		t.Fatalf("cut = %d, want 64", st.Cut)
	}
	if imb := graph.Imbalance(g.G, part, 2); imb != 0 {
		t.Fatalf("imbalance %v", imb)
	}
}

// TestPartition3DSphereBeatsRCBOnLShape: on an L-shaped (non-convex)
// domain the sphere separator family is at least competitive with a
// straight axis cut.
func TestPartition3DOnElongated(t *testing.T) {
	g := gen.Grid3D(6, 6, 60)
	_, sph, err := Partition3D(g.G, g.Coords, G30())
	if err != nil {
		t.Fatal(err)
	}
	_, rcb, err := RCBBisect(g.G, g.Coords)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal is a 6x6=36-edge z-plane; both should find ~that.
	if sph.Cut > 3*rcb.Cut {
		t.Fatalf("sphere separator %d vs RCB %d", sph.Cut, rcb.Cut)
	}
}

func TestRCB3DKWayBalanced(t *testing.T) {
	g := gen.Grid3D(8, 8, 8)
	part, err := RCB(g.G, g.Coords, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.PartWeights(g.G, part, 8)
	for i, wi := range w {
		if wi != 64 {
			t.Fatalf("part %d weight %d, want 64", i, wi)
		}
	}
	if cut := graph.CutSize(g.G, part); cut <= 0 || cut > 600 {
		t.Fatalf("implausible 8-way cut %d", cut)
	}
}
