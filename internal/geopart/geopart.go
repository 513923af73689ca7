// Package geopart implements the geometric mesh partitioner of
// Gilbert, Miller and Teng as used by the paper: points are lifted to
// the unit sphere by stereographic projection, an approximate
// centerpoint is computed from a sample by iterated Radon points, the
// sphere is conformally mapped so the centerpoint sits at the origin,
// and random great circles through the origin become candidate
// separators; optional coordinate line separators complete the
// candidate set. The best cut wins.
//
// Three configurations mirror the paper's notation: G30 (22 great
// circles over 2 centerpoints, 7 line separators, plus the coordinate
// axes' best), G7 (5 circles, 1 centerpoint, 2 lines), and G7-NL (G7
// without line separators — the variant ScalaPart parallelises).
//
// The package also provides recursive coordinate bisection (RCB) in the
// style of Zoltan, and the parallel formulation SP-PG7-NL that operates
// on a distributed embedding (see parallel.go). The sequential
// partitioner (Partition, Partition3D) and RCB (RCBBisect, RCB) take
// 2-D or 3-D coordinates through one implementation each.
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

// Config selects the candidate mix of the geometric partitioner.
type Config struct {
	GreatCircles int // total random great circles, split over centerpoints
	Centerpoints int // independent centerpoint computations
	LineSeps     int // random line separators in the plane (0 = "NL")
	Seed         int64
}

// sampleSize is the number of points the centerpoint is computed from.
const sampleSize = 800

// G30 is the paper's strong sequential configuration.
func G30() Config {
	return Config{GreatCircles: 23, Centerpoints: 2, LineSeps: 7, Seed: 30}
}

// G7 is the paper's cheap sequential configuration.
func G7() Config {
	return Config{GreatCircles: 5, Centerpoints: 1, LineSeps: 2, Seed: 7}
}

// G7NL is G7 without line separators; ScalaPart parallelises this
// variant (line separators need an eigenvector solve the paper avoids).
func G7NL() Config {
	return Config{GreatCircles: 7, Centerpoints: 1, LineSeps: 0, Seed: 7}
}

func (c Config) withDefaults() Config {
	if c.Centerpoints == 0 {
		c.Centerpoints = 1
	}
	return c
}

// Stats reports the outcome of a geometric partition.
type Stats struct {
	Cut       int64
	Imbalance float64
	Tries     int
	BestKind  string // "circle"/"line" in 2-D, "sphere"/"plane" in 3-D, "rcb"/"rcb3d"
}

// frameOf returns the normalisation frame of pts: their centroid, and
// the scale that takes their median distance from it to 1 (1 itself
// when that median is below 1e-12, or pts is empty). Centring and
// scaling is the standard preconditioning before the stereographic
// lift.
func frameOf[V geometry.Vector[V]](pts []V) (centroid V, scale float64) {
	centroid, scale = geometry.Centroid(pts), 1
	if len(pts) == 0 {
		return centroid, scale
	}
	rs := make([]float64, len(pts))
	for i, p := range pts {
		rs[i] = p.Sub(centroid).Norm()
	}
	if med := stats.Quantile(rs, 0.5); med > 1e-12 {
		scale = 1 / med
	}
	return centroid, scale
}

// normalize returns coords mapped into their frameOf frame.
func normalize[V geometry.Vector[V]](coords []V) []V {
	c, scale := frameOf(coords)
	out := make([]V, len(coords))
	for i, p := range coords {
		out[i] = p.Sub(c).Scale(scale)
	}
	return out
}

// space is what the geometric partitioner needs to know about the
// dimension of its input, points P in R^d lifted to L in R^(d+1): the
// stereographic lift, the Möbius map that moves a centerpoint to the
// origin, the random directions of the great-sphere candidates (in
// R^(d+1)) and of the hyperplane candidates (in R^d), and the names the
// two kinds report as Stats.BestKind.
type space[P geometry.Vector[P], L geometry.Vector[L]] struct {
	name                 string
	lift                 func(P) L
	moebius              func(center L) func(L) L
	sphereDir            func(*rand.Rand) L
	lineDir              func(*rand.Rand) P
	sphereKind, lineKind string
}

var (
	plane = space[geometry.Vec2, geometry.Vec3]{
		name: "Partition",
		lift: geometry.StereoUp,
		moebius: func(center geometry.Vec3) func(geometry.Vec3) geometry.Vec3 {
			return geometry.NewMoebius(center).Apply
		},
		sphereDir:  geometry.RandomUnitVec3,
		lineDir:    geometry.RandomUnitVec2,
		sphereKind: "circle",
		lineKind:   "line",
	}
	volume = space[geometry.Vec3, geometry.Vec4]{
		name:       "Partition3D",
		lift:       geometry.StereoUp3,
		moebius:    geometry.MoebiusToOrigin4,
		sphereDir:  geometry.RandomUnitVec4,
		lineDir:    geometry.RandomUnitVec3,
		sphereKind: "sphere",
		lineKind:   "plane",
	}
)

// Partition bisects g using the geometric mesh partitioning scheme on
// the given 2-D vertex coordinates. It returns the part assignment
// (0/1) and statistics of the best separator found, or an error when
// the coordinate array does not match the graph.
func Partition(g *graph.Graph, coords []geometry.Vec2, cfg Config) ([]int32, Stats, error) {
	return partition(plane, g, coords, cfg)
}

// Partition3D is Partition on 3-D vertex coordinates: points lift to
// the unit 3-sphere in R⁴, random great 2-spheres (hyperplanes through
// the origin) are the candidates, and line separators are planes in R³.
// The Gilbert–Miller–Teng guarantees cover well-shaped 3-D meshes with
// O(n^{2/3}) separators.
func Partition3D(g *graph.Graph, coords []geometry.Vec3, cfg Config) ([]int32, Stats, error) {
	return partition(volume, g, coords, cfg)
}

// partition is the geometric mesh partitioner in either dimension.
func partition[P geometry.Vector[P], L geometry.Vector[L]](sp space[P, L], g *graph.Graph, coords []P, cfg Config) ([]int32, Stats, error) {
	cfg = cfg.withDefaults()
	n := g.NumVertices()
	if len(coords) != n {
		return nil, Stats{}, fmt.Errorf("geopart: %s got %d coordinates for %d vertices", sp.name, len(coords), n)
	}
	if n <= 1 {
		return make([]int32, n), Stats{}, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	norm := normalize(coords)
	lifted := make([]L, n)
	for i, p := range norm {
		lifted[i] = sp.lift(p)
	}
	// Sample for centerpoints.
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
	sample := make([]L, len(sampleIdx))
	mapped := make([]L, n)
	for cp := 0; cp < cfg.Centerpoints; cp++ {
		for i, idx := range sampleIdx {
			sample[i] = lifted[idx]
		}
		center := geometry.Centerpoint(sample, rng)
		circles := perCP
		if cp < extra {
			circles++
		}
		if circles == 0 {
			// A centerpoint with no great circles contributes nothing;
			// the Radon iteration above keeps the RNG stream (and thus
			// every candidate) unchanged, but the O(n) conformal map
			// would be pure waste.
			continue
		}
		mob := sp.moebius(center)
		for i, q := range lifted {
			mapped[i] = mob(q)
		}
		for t := 0; t < circles; t++ {
			u := sp.sphereDir(rng)
			for i, q := range mapped {
				vals[i] = q.Dot(u)
			}
			evaluate(sp.sphereKind)
		}
	}
	for t := 0; t < cfg.LineSeps; t++ {
		u := sp.lineDir(rng)
		for i, p := range norm {
			vals[i] = p.Dot(u)
		}
		evaluate(sp.lineKind)
	}
	if bestPart == nil {
		// Nothing within tolerance (degenerate input); fall back to an
		// id split.
		bestPart = make([]int32, n)
		for v := n / 2; v < n; v++ {
			bestPart[v] = 1
		}
		best = Stats{Cut: graph.CutSize(g, bestPart), Imbalance: graph.Imbalance(g, bestPart, 2)}
	}
	best.Tries = tries
	return bestPart, best, nil
}

// bisectByValues assigns the floor(n/2) vertices with the smallest
// (value, id) pairs to side 0 and the rest to side 1, writing into
// part. Lexicographic tie-breaking keeps symmetric coordinate sets
// (e.g. integer grids) exactly bisectable. Returns the threshold value.
func bisectByValues(vals []float64, part []int32) float64 {
	n := len(vals)
	k := n / 2
	threshold := stats.QuickSelect(vals, k)
	// First pass: strictly below / above.
	below := 0
	for _, v := range vals {
		if v < threshold {
			below++
		}
	}
	tiesToSide0 := k - below
	for i, v := range vals {
		switch {
		case v < threshold:
			part[i] = 0
		case v > threshold:
			part[i] = 1
		default:
			if tiesToSide0 > 0 {
				part[i] = 0
				tiesToSide0--
			} else {
				part[i] = 1
			}
		}
	}
	return threshold
}

// sampleIndices draws k distinct indices (or all of them when n <= k).
func sampleIndices(n, k int, rng *rand.Rand) []int32 {
	if n <= k {
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(i)
		}
		return out
	}
	perm := rng.Perm(n)[:k]
	out := make([]int32, k)
	for i, v := range perm {
		out[i] = int32(v)
	}
	return out
}
