package quadtree

import (
	"math"

	"repro/internal/geometry"
)

// Group is up to four Repulsion queries that RepulsionGroup answers in
// one walk of the tree. It is laid out lane by lane, one array per
// operand, as the four-lane kernel loads it.
type Group struct {
	x, y    [4]float64 // query points
	mi      [4]float64 // query masses
	accX    [4]float64 // accumulators, in and out
	accY    [4]float64
	exclude [4]int64 // excluded point indices
	resume  [4]int64 // lock-step walk state, set by the kernel's caller
	n       int      // lanes in use
}

// Reset empties the group.
func (g *Group) Reset() { g.n = 0 }

// Add appends the query Repulsion(p, exclude, ·, ·, mi, acc) as the next
// lane. A group holds at most four.
func (g *Group) Add(p geometry.Vec2, exclude int32, mi float64, acc geometry.Vec2) {
	l := g.n
	g.x[l], g.y[l], g.mi[l] = p.X, p.Y, mi
	g.accX[l], g.accY[l] = acc.X, acc.Y
	g.exclude[l] = int64(exclude)
	g.n++
}

// Acc returns lane l's accumulator: after RepulsionGroup, its query's
// Repulsion result.
func (g *Group) Acc(l int) geometry.Vec2 {
	return geometry.Vec2{X: g.accX[l], Y: g.accY[l]}
}

// RepulsionGroup sets every lane l of g to Repulsion(p, exclude, theta,
// ck2, mi, acc) of the query it holds, bit for bit. Where the CPU has a
// four-lane kernel (lockstep), one walk of the tree serves all lanes;
// the group falls back to Repulsion lane by lane, from the saved
// accumulators, when the kernel declines it: no such kernel, a theta
// the opening filter does not take, an opening test the filter does not
// settle, or an opened cell that holds a depth-cap residue.
func (t *Tree) RepulsionGroup(g *Group, theta, ck2 float64) {
	th2 := filterTheta2(theta)
	if !math.IsNaN(th2) && t.lockstep(g, th2, ck2) {
		return
	}
	for l := 0; l < g.n; l++ {
		p := geometry.Vec2{X: g.x[l], Y: g.y[l]}
		acc := t.Repulsion(p, int32(g.exclude[l]), theta, ck2, g.mi[l], g.Acc(l))
		g.accX[l], g.accY[l] = acc.X, acc.Y
	}
}
