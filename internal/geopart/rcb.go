package geopart

import (
	"repro/internal/geometry"
	"repro/internal/graph"
)

// RCBBisect computes a recursive-coordinate-bisection style single cut:
// the median plane orthogonal to the wider coordinate extent, exactly
// as Zoltan's RCB produces a two-way split. Ties are broken by vertex
// id so integer grids bisect exactly.
func RCBBisect(g *graph.Graph, coords []geometry.Vec2) ([]int32, Stats) {
	n := g.NumVertices()
	part := make([]int32, n)
	if n <= 1 {
		return part, Stats{Tries: 1}
	}
	r := geometry.BoundingRect(coords)
	vals := make([]float64, n)
	if r.Width() >= r.Height() {
		for i, p := range coords {
			vals[i] = p.X
		}
	} else {
		for i, p := range coords {
			vals[i] = p.Y
		}
	}
	bisectByValues(vals, part)
	return part, Stats{
		Cut:       graph.CutSize(g, part),
		Imbalance: graph.Imbalance(g, part, 2),
		Tries:     1,
		BestKind:  "rcb",
	}
}
