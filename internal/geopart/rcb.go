package geopart

import (
	"fmt"
	"strconv"

	"repro/internal/geometry"
	"repro/internal/graph"
)

// RCBBisect computes a recursive-coordinate-bisection style single cut
// on 2-D or 3-D coordinates: the median plane orthogonal to the widest
// coordinate extent, exactly as Zoltan's RCB produces a two-way split.
// Ties are broken by vertex id so integer grids bisect exactly. Its
// BestKind is "rcb" in 2-D and "rcb3d" in 3-D.
func RCBBisect[P geometry.Vector[P]](g *graph.Graph, coords []P) ([]int32, Stats) {
	n := g.NumVertices()
	part := make([]int32, n)
	if n <= 1 {
		return part, Stats{Tries: 1}
	}
	rcbSplit(coords, identity(n), part, 0, 2)
	kind := "rcb"
	if d := geometry.Dim[P](); d != 2 {
		kind += strconv.Itoa(d) + "d"
	}
	return part, Stats{
		Cut:       graph.CutSize(g, part),
		Imbalance: graph.Imbalance(g, part, 2),
		Tries:     1,
		BestKind:  kind,
	}
}

// RCB recursively bisects g into parts pieces (a power of two) by
// coordinate medians on 2-D or 3-D coordinates, splitting the widest
// extent at each level. It returns the part assignment, or an error for
// an invalid part count or a coordinate array that does not match the
// graph.
func RCB[P geometry.Vector[P]](g *graph.Graph, coords []P, parts int) ([]int32, error) {
	if parts < 1 || parts&(parts-1) != 0 {
		return nil, fmt.Errorf("geopart: RCB part count %d must be a power of two", parts)
	}
	n := g.NumVertices()
	if len(coords) != n {
		return nil, fmt.Errorf("geopart: RCB got %d coordinates for %d vertices", len(coords), n)
	}
	part := make([]int32, n)
	rcbSplit(coords, identity(n), part, 0, parts)
	return part, nil
}

// identity returns the vertex ids 0..n-1.
func identity(n int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	return idx
}

// rcbSplit assigns part ids [base, base+parts) to the vertices idx.
func rcbSplit[P geometry.Vector[P]](coords []P, idx []int32, part []int32, base int32, parts int) {
	if parts == 1 || len(idx) <= 1 {
		for _, v := range idx {
			part[v] = base
		}
		return
	}
	pts := make([]P, len(idx))
	for i, v := range idx {
		pts[i] = coords[v]
	}
	axis := widestAxis(pts)
	vals := make([]float64, len(idx))
	for i, p := range pts {
		c, _ := p.Coords()
		vals[i] = c[axis]
	}
	sides := make([]int32, len(idx))
	bisectByValues(vals, sides)
	var lo, hi []int32
	for i, v := range idx {
		if sides[i] == 0 {
			lo = append(lo, v)
		} else {
			hi = append(hi, v)
		}
	}
	rcbSplit(coords, lo, part, base, parts/2)
	rcbSplit(coords, hi, part, base+int32(parts/2), parts/2)
}

// widestAxis returns the axis along which pts spread widest, the lowest
// such axis on a tie (0 for no points). Like geometry.BoundingRect, the
// bounds start at the first point and move only on a strict comparison,
// so a NaN coordinate after the first is skipped, and an axis replaces
// the current one only when the current extent is not >= its own. This
// is the one axis rule of sequential and parallel RCB.
func widestAxis[P geometry.Vector[P]](pts []P) int {
	if len(pts) == 0 {
		return 0
	}
	lo, d := pts[0].Coords()
	hi := lo
	for _, p := range pts[1:] {
		c, _ := p.Coords()
		for k := 0; k < d; k++ {
			if c[k] < lo[k] {
				lo[k] = c[k]
			}
			if c[k] > hi[k] {
				hi[k] = c[k]
			}
		}
	}
	axis := 0
	for k := 1; k < d; k++ {
		if !(hi[axis]-lo[axis] >= hi[k]-lo[k]) {
			axis = k
		}
	}
	return axis
}
