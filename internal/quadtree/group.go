package quadtree

import (
	"math"

	"repro/internal/geometry"
)

// GroupLanes is the number of queries a Group holds.
const GroupLanes = 8

// Group is up to GroupLanes Repulsion queries that RepulsionGroup
// answers in one walk of the tree. It is laid out lane by lane, one
// array per operand, as the lock-step kernels load it: lanes 4–7 of
// every array sit 32 bytes past lanes 0–3, where the four-lane kernel
// finds them.
type Group struct {
	x, y    [GroupLanes]float64 // query points
	mi      [GroupLanes]float64 // query masses
	accX    [GroupLanes]float64 // accumulators, in and out
	accY    [GroupLanes]float64
	exclude [GroupLanes]int64 // excluded point indices
	resume  [GroupLanes]int64 // lock-step walk state, set by the kernel's caller
	n       int               // lanes in use
}

// Reset empties the group.
func (g *Group) Reset() { g.n = 0 }

// Add appends the query Repulsion(p, exclude, ·, ·, mi, acc) as the next
// lane. A group holds at most GroupLanes.
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
// lock-step kernel (hostKernel), one walk of the tree serves eight
// lanes, or each half of four. A group, or a half, falls back to
// Repulsion lane by lane, from its saved accumulators, when the kernel
// declines it: no such kernel, a theta the opening filter does not
// take, an opening test the filter does not settle, or an opened cell
// that holds a depth-cap residue.
func (t *Tree) RepulsionGroup(g *Group, theta, ck2 float64) {
	t.repulsionGroup(g, theta, ck2, hostKernel)
}

// repulsionGroup is RepulsionGroup on kernel k, which must be one the
// CPU runs (k <= hostKernel); the tests pick it to reach every such
// kernel.
func (t *Tree) repulsionGroup(g *Group, theta, ck2 float64, k kernel) {
	var done uint8
	if th2 := filterTheta2(theta); !math.IsNaN(th2) {
		done = t.lockstep(g, k, th2, ck2)
	}
	for l := 0; l < g.n; l++ {
		if done>>l&1 != 0 {
			continue
		}
		p := geometry.Vec2{X: g.x[l], Y: g.y[l]}
		acc := t.Repulsion(p, int32(g.exclude[l]), theta, ck2, g.mi[l], g.Acc(l))
		g.accX[l], g.accY[l] = acc.X, acc.Y
	}
}
