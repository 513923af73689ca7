package gen

import (
	"math"
	"math/rand"

	"repro/internal/geometry"
)

// Trace builds a triangulated meandering ribbon of roughly n vertices —
// the long, thin, hole-free domain class of hugetrace-00000. The ribbon
// follows a sine snake several periods long; the aspect ratio makes
// good separators short and strongly direction-dependent, which is what
// exercises a geometric partitioner on this class.
func Trace(n int, seed int64) *Generated { return buildMesh(traceInput(n, seed)) }

// traceInput draws Trace's points and its edge-length cap.
func traceInput(n int, seed int64) meshInput {
	rng := rand.New(rand.NewSource(seed))
	// Ribbon: length L in x with y = A·sin(2πfx), half-width w.
	const periods = 4.0
	const width = 0.08
	length := 4.0
	amp := 0.8
	pts := make([]geometry.Vec2, 0, n)
	for i := 0; i < n; i++ {
		x := rng.Float64() * length
		c := amp * math.Sin(2*math.Pi*periods*x/length)
		y := c + (rng.Float64()*2-1)*width
		pts = append(pts, geometry.Vec2{X: x, Y: y})
	}
	// Edges must not cut across ribbon folds: the vertical distance
	// between adjacent folds is ~amp, so a conservative length cap of
	// several mean spacings suffices.
	spacing := math.Sqrt(length * 2 * width / float64(n))
	return meshInput{name: "trace", pts: pts, maxEdge: 6 * spacing}
}

// Bubbles builds a triangulated disk with circular holes ("bubbles") of
// roughly n vertices, the domain class of hugebubbles-00020. Holes are
// placed on a jittered ring pattern; points inside holes are rejected
// and triangulation edges crossing a hole are dropped.
func Bubbles(n, holes int, seed int64) *Generated { return buildMesh(bubblesInput(n, holes, seed)) }

// bubblesInput draws Bubbles' points and its edge filters.
func bubblesInput(n, holes int, seed int64) meshInput {
	rng := rand.New(rand.NewSource(seed))
	type hole struct {
		c geometry.Vec2
		r float64
	}
	hs := make([]hole, 0, holes)
	for len(hs) < holes {
		c := geometry.Vec2{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1}
		if c.Norm() > 0.85 {
			continue
		}
		r := 0.05 + 0.07*rng.Float64()
		ok := true
		for _, h := range hs {
			if h.c.Dist(c) < h.r+r+0.05 {
				ok = false
				break
			}
		}
		if ok {
			hs = append(hs, hole{c, r})
		}
	}
	inHole := func(p geometry.Vec2) bool {
		for _, h := range hs {
			// math.Hypot is never below the larger of |dx| and |dy|, so
			// a point that far out on either axis is outside the hole
			// (NaN and Inf decide the same way as Dist would).
			dx, dy := p.X-h.c.X, p.Y-h.c.Y
			if math.Abs(dx) >= h.r || math.Abs(dy) >= h.r {
				continue
			}
			if math.Hypot(dx, dy) < h.r {
				return true
			}
		}
		return false
	}
	pts := make([]geometry.Vec2, 0, n)
	for len(pts) < n {
		p := geometry.Vec2{X: rng.Float64()*2 - 1, Y: rng.Float64()*2 - 1}
		if p.Norm() > 1 || inHole(p) {
			continue
		}
		pts = append(pts, p)
	}
	spacing := math.Sqrt(math.Pi / float64(n)) // ~unit disk area / n
	reject := func(a, b geometry.Vec2) bool {
		return inHole(a.Add(b).Scale(0.5))
	}
	return meshInput{name: "bubbles", pts: pts, maxEdge: 6 * spacing, reject: reject}
}
