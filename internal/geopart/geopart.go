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
// on a distributed embedding (see parallel.go).
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
	BestKind  string // "circle" or "line"
}

// normalize centers coords on their centroid and scales so the median
// radius is 1, the standard preconditioning before the stereographic
// lift. It returns the transformed copy.
func normalize(coords []geometry.Vec2) []geometry.Vec2 {
	c := geometry.Centroid2(coords)
	rs := make([]float64, len(coords))
	for i, p := range coords {
		rs[i] = p.Sub(c).Norm()
	}
	med := stats.Quantile(rs, 0.5)
	if med < 1e-12 {
		med = 1
	}
	out := make([]geometry.Vec2, len(coords))
	inv := 1 / med
	for i, p := range coords {
		out[i] = p.Sub(c).Scale(inv)
	}
	return out
}

// Partition bisects g using the geometric mesh partitioning scheme on
// the given vertex coordinates. It returns the part assignment (0/1)
// and statistics of the best separator found, or an error when the
// coordinate array does not match the graph.
func Partition(g *graph.Graph, coords []geometry.Vec2, cfg Config) ([]int32, Stats, error) {
	cfg = cfg.withDefaults()
	n := g.NumVertices()
	if len(coords) != n {
		return nil, Stats{}, fmt.Errorf("geopart: Partition got %d coordinates for %d vertices", len(coords), n)
	}
	if n == 1 {
		return []int32{0}, Stats{}, nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	norm := normalize(coords)
	lifted := make([]geometry.Vec3, n)
	for i, p := range norm {
		lifted[i] = geometry.StereoUp(p)
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
	sample3 := make([]geometry.Vec3, len(sampleIdx))
	mapped := make([]geometry.Vec3, n)
	for cp := 0; cp < cfg.Centerpoints; cp++ {
		for i, idx := range sampleIdx {
			sample3[i] = lifted[idx]
		}
		center := geometry.Centerpoint(sample3, rng)
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
		mob := geometry.NewMoebius(center)
		for i, q := range lifted {
			mapped[i] = mob.Apply(q)
		}
		for t := 0; t < circles; t++ {
			u := geometry.RandomUnitVec3(rng)
			for i, q := range mapped {
				vals[i] = q.Dot(u)
			}
			evaluate("circle")
		}
	}
	for t := 0; t < cfg.LineSeps; t++ {
		u := geometry.RandomUnitVec2(rng)
		for i, p := range norm {
			vals[i] = p.Dot(u)
		}
		evaluate("line")
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
