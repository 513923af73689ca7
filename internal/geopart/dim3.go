package geopart

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/refine"
	"repro/internal/stats"
)

// Partition3D bisects g using the geometric mesh partitioning scheme on
// 3-D vertex coordinates: points lift to the unit 3-sphere in R⁴, an
// approximate centerpoint comes from iterated R⁴ Radon points, the
// Möbius map centres the cloud, and random great 2-spheres (hyperplanes
// through the origin) become candidate separators. Line separators use
// random directions in R³. The Gilbert–Miller–Teng guarantees cover
// well-shaped 3-D meshes with O(n^{2/3}) separators.
func Partition3D(g *graph.Graph, coords []geometry.Vec3, cfg Config) ([]int32, Stats, error) {
	cfg = cfg.withDefaults()
	n := g.NumVertices()
	if len(coords) != n {
		return nil, Stats{}, fmt.Errorf("geopart: Partition3D got %d coordinates for %d vertices", len(coords), n)
	}
	if n == 1 {
		return []int32{0}, Stats{}, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	norm := normalize3(coords)
	lifted := make([]geometry.Vec4, n)
	for i, p := range norm {
		lifted[i] = geometry.StereoUp3(p)
	}
	sampleIdx := sampleIndices(n, sampleSize, rng)

	bestCut := int64(math.MaxInt64)
	var bestPart []int32
	var best Stats
	tries := 0
	vals := make([]float64, n)
	part := make([]int32, n)
	evaluate := func(kind string) {
		tries++
		bisectByValues(vals, part)
		cut := graph.CutSize(g, part)
		imb := graph.Imbalance(g, part, 2)
		if imb <= refine.BalanceTol && cut < bestCut {
			bestCut = cut
			bestPart = append(bestPart[:0:0], part...)
			best = Stats{Cut: cut, Imbalance: imb, BestKind: kind}
		}
	}
	perCP := cfg.GreatCircles / cfg.Centerpoints
	extra := cfg.GreatCircles % cfg.Centerpoints
	sample4 := make([]geometry.Vec4, len(sampleIdx))
	mapped := make([]geometry.Vec4, n)
	for cp := 0; cp < cfg.Centerpoints; cp++ {
		for i, idx := range sampleIdx {
			sample4[i] = lifted[idx]
		}
		center := geometry.Centerpoint4(sample4, rng)
		circles := perCP
		if cp < extra {
			circles++
		}
		if circles == 0 {
			// Same skip as Partition: keep the RNG stream, drop the
			// wasted O(n) conformal map.
			continue
		}
		mob := geometry.MoebiusToOrigin4(center)
		for i, q := range lifted {
			mapped[i] = mob(q)
		}
		for t := 0; t < circles; t++ {
			u := geometry.RandomUnitVec4(rng)
			for i, q := range mapped {
				vals[i] = q.Dot(u)
			}
			evaluate("sphere")
		}
	}
	for t := 0; t < cfg.LineSeps; t++ {
		u := geometry.RandomUnitVec3(rng)
		for i, p := range norm {
			vals[i] = p.Dot(u)
		}
		evaluate("plane")
	}
	if bestPart == nil {
		bestPart = make([]int32, n)
		for v := n / 2; v < n; v++ {
			bestPart[v] = 1
		}
		best = Stats{Cut: graph.CutSize(g, bestPart), Imbalance: graph.Imbalance(g, bestPart, 2)}
	}
	best.Tries = tries
	return bestPart, best, nil
}

// normalize3 centers 3-D coordinates on their centroid and scales so
// the median radius is 1.
func normalize3(coords []geometry.Vec3) []geometry.Vec3 {
	var c geometry.Vec3
	for _, p := range coords {
		c = c.Add(p)
	}
	c = c.Scale(1 / math.Max(float64(len(coords)), 1))
	rs := make([]float64, len(coords))
	for i, p := range coords {
		rs[i] = p.Sub(c).Norm()
	}
	med := stats.Quantile(rs, 0.5)
	if med < 1e-12 {
		med = 1
	}
	inv := 1 / med
	out := make([]geometry.Vec3, len(coords))
	for i, p := range coords {
		out[i] = p.Sub(c).Scale(inv)
	}
	return out
}

// RCBBisect3D is the 3-D recursive-coordinate-bisection single cut: the
// median plane orthogonal to the widest coordinate extent.
func RCBBisect3D(g *graph.Graph, coords []geometry.Vec3) ([]int32, Stats) {
	n := g.NumVertices()
	part := make([]int32, n)
	if n <= 1 {
		return part, Stats{Tries: 1}
	}
	var lo, hi geometry.Vec3
	lo, hi = coords[0], coords[0]
	for _, p := range coords {
		lo = geometry.Vec3{X: math.Min(lo.X, p.X), Y: math.Min(lo.Y, p.Y), Z: math.Min(lo.Z, p.Z)}
		hi = geometry.Vec3{X: math.Max(hi.X, p.X), Y: math.Max(hi.Y, p.Y), Z: math.Max(hi.Z, p.Z)}
	}
	ext := geometry.Vec3{X: hi.X - lo.X, Y: hi.Y - lo.Y, Z: hi.Z - lo.Z}
	vals := make([]float64, n)
	switch {
	case ext.X >= ext.Y && ext.X >= ext.Z:
		for i, p := range coords {
			vals[i] = p.X
		}
	case ext.Y >= ext.Z:
		for i, p := range coords {
			vals[i] = p.Y
		}
	default:
		for i, p := range coords {
			vals[i] = p.Z
		}
	}
	bisectByValues(vals, part)
	return part, Stats{
		Cut:       graph.CutSize(g, part),
		Imbalance: graph.Imbalance(g, part, 2),
		Tries:     1,
		BestKind:  "rcb3d",
	}
}

// RCB3D recursively bisects g into parts pieces (a power of two) by
// 3-D coordinate medians, always splitting the widest extent. It
// returns an error for an invalid part count or a coordinate array
// that does not match the graph.
func RCB3D(g *graph.Graph, coords []geometry.Vec3, parts int) ([]int32, error) {
	if parts < 1 || parts&(parts-1) != 0 {
		return nil, fmt.Errorf("geopart: RCB3D part count %d must be a power of two", parts)
	}
	if len(coords) != g.NumVertices() {
		return nil, fmt.Errorf("geopart: RCB3D got %d coordinates for %d vertices", len(coords), g.NumVertices())
	}
	part := make([]int32, g.NumVertices())
	idx := make([]int32, g.NumVertices())
	for i := range idx {
		idx[i] = int32(i)
	}
	rcb3Split(coords, idx, part, 0, parts)
	return part, nil
}

func rcb3Split(coords []geometry.Vec3, idx []int32, part []int32, base int32, parts int) {
	if parts == 1 || len(idx) <= 1 {
		for _, v := range idx {
			part[v] = base
		}
		return
	}
	var lo, hi geometry.Vec3
	for i, v := range idx {
		p := coords[v]
		if i == 0 {
			lo, hi = p, p
			continue
		}
		lo = geometry.Vec3{X: math.Min(lo.X, p.X), Y: math.Min(lo.Y, p.Y), Z: math.Min(lo.Z, p.Z)}
		hi = geometry.Vec3{X: math.Max(hi.X, p.X), Y: math.Max(hi.Y, p.Y), Z: math.Max(hi.Z, p.Z)}
	}
	ext := geometry.Vec3{X: hi.X - lo.X, Y: hi.Y - lo.Y, Z: hi.Z - lo.Z}
	vals := make([]float64, len(idx))
	for i, v := range idx {
		switch {
		case ext.X >= ext.Y && ext.X >= ext.Z:
			vals[i] = coords[v].X
		case ext.Y >= ext.Z:
			vals[i] = coords[v].Y
		default:
			vals[i] = coords[v].Z
		}
	}
	sides := make([]int32, len(idx))
	bisectByValues(vals, sides)
	var l, h []int32
	for i, v := range idx {
		if sides[i] == 0 {
			l = append(l, v)
		} else {
			h = append(h, v)
		}
	}
	rcb3Split(coords, l, part, base, parts/2)
	rcb3Split(coords, h, part, base+int32(parts/2), parts/2)
}
