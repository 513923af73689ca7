// Package quadtree implements the Barnes–Hut quadtree behind every
// repulsion sum of the force-directed embeddings: each rank's own-box
// near field in the fixed-lattice parallel embedding, and the
// sequential multilevel baseline. It gives O(n log n) approximate
// evaluation of long-range repulsive forces with the classic theta
// opening criterion.
//
// A build inserts the points into a pointer quadtree, then flattens the
// cells that can contribute force into one preorder array. The force
// kernel (Repulsion) walks that array without recursion or callbacks:
// an accepted cluster jumps past its subtree, anything else steps to
// the next entry.
package quadtree

import (
	"math"

	"repro/internal/geometry"
)

const maxDepth = 48

// node is one build-time quadtree cell. Leaves hold a single point
// index; a cell at the depth cap instead folds every point that reaches
// it into a capCell.
type node struct {
	children [4]int32 // -1 when absent
	point    int32    // point index for a leaf, -1 otherwise
	count    int32    // points in subtree
	cap      int32    // index into Tree.caps, -1 when no point hit the depth cap here
}

// capCell accumulates the points folded into a cell at the depth cap.
type capCell struct {
	sum  geometry.Vec2 // mass-weighted position sum
	mass float64
}

// flatNode is one force-visible cell (nonzero subtree mass) in DFS
// preorder, children in quadrant order 0..3. For a leaf (pt ≥ 0), x, y
// and m are the raw point and its mass. For any other cell they are the
// subtree's centre of mass and total mass, w is the cell side, and skip
// is the index just past the cell's subtree. pt < -1 marks a cell whose
// depth-capped residue caps[-2-pt] is visited on its own when the cell
// is opened; an insert pushes a resident point down as soon as a second
// one arrives, so no other cell still holds a point of its own.
type flatNode struct {
	x, y, m, w float64
	pt, skip   int32
}

// Tree is a Barnes–Hut quadtree over weighted points in the plane.
type Tree struct {
	nodes []node
	caps  []capCell
	flat  []flatNode
	pts   []geometry.Vec2
	mass  []float64
	total float64 // mass of the whole tree
}

// Build constructs a quadtree over pts. mass may be nil for unit
// masses. Duplicate and near-duplicate points are handled by capping
// subdivision depth; beyond the cap, points accumulate in the same cell
// and only contribute through its aggregate.
func Build(pts []geometry.Vec2, mass []float64) *Tree {
	t := &Tree{}
	t.Rebuild(pts, mass)
	return t
}

// Rebuild reconstructs the tree in place over a new point set, reusing
// the storage of previous builds. Iterative force loops that rebuild
// the tree every step go through here to stay allocation-free in
// steady state.
func (t *Tree) Rebuild(pts []geometry.Vec2, mass []float64) {
	t.nodes, t.caps, t.flat = t.nodes[:0], t.caps[:0], t.flat[:0]
	t.total = 0
	if len(pts) == 0 {
		t.pts, t.mass = nil, nil
		return
	}
	bounds := squareBounds(geometry.BoundingRect(pts))
	t.pts = pts
	t.mass = mass
	if cap(t.nodes) == 0 {
		t.nodes = make([]node, 0, 2*len(pts))
	}
	t.nodes = append(t.nodes, emptyNode())
	for i := range pts {
		t.insert(0, int32(i), bounds, 0)
	}
	if cap(t.flat) == 0 {
		t.flat = make([]flatNode, 0, len(t.nodes))
	}
	_, t.total = t.flatten(0, bounds)
}

func emptyNode() node {
	return node{children: [4]int32{-1, -1, -1, -1}, point: -1, cap: -1}
}

// squareBounds pads the rect into a square so quadrants stay square.
func squareBounds(r geometry.Rect) geometry.Rect {
	w, h := r.Width(), r.Height()
	side := w
	if h > side {
		side = h
	}
	if side == 0 {
		side = 1
	}
	c := r.Center()
	half := side/2 + 1e-9*side
	return geometry.Rect{X0: c.X - half, Y0: c.Y - half, X1: c.X + half, Y1: c.Y + half}
}

// childRect returns quadrant q of b, split at b's centre c: bit 0 picks
// the upper x half, bit 1 the upper y half.
func childRect(b geometry.Rect, c geometry.Vec2, q int) geometry.Rect {
	if q&1 == 0 {
		b.X1 = c.X
	} else {
		b.X0 = c.X
	}
	if q&2 == 0 {
		b.Y1 = c.Y
	} else {
		b.Y0 = c.Y
	}
	return b
}

func quadrant(b geometry.Rect, p geometry.Vec2) (int, geometry.Rect) {
	c := b.Center()
	q := 0
	if p.X > c.X {
		q |= 1
	}
	if p.Y > c.Y {
		q |= 2
	}
	return q, childRect(b, c, q)
}

func (t *Tree) massOf(i int32) float64 {
	if t.mass == nil {
		return 1
	}
	return t.mass[i]
}

func (t *Tree) insert(ni int32, pi int32, b geometry.Rect, depth int) {
	n := &t.nodes[ni]
	n.count++
	if depth >= maxDepth {
		// Depth cap: fold the point into this cell's aggregate only.
		if n.cap < 0 {
			n.cap = int32(len(t.caps))
			t.caps = append(t.caps, capCell{})
		}
		c := &t.caps[n.cap]
		m := t.massOf(pi)
		c.sum = c.sum.Add(t.pts[pi].Scale(m))
		c.mass += m
		return
	}
	if n.count == 1 {
		n.point = pi
		return
	}
	if n.point >= 0 {
		// Leaf becoming internal: push the resident point down.
		old := n.point
		n.point = -1
		q, qb := quadrant(b, t.pts[old])
		ci := t.child(ni, q)
		t.insert(ci, old, qb, depth+1)
	}
	q, qb := quadrant(b, t.pts[pi])
	ci := t.child(ni, q)
	t.insert(ci, pi, qb, depth+1)
}

// child returns (allocating if needed) the q-th child of node ni. Note
// the re-take of the node pointer after append, which may move nodes.
func (t *Tree) child(ni int32, q int) int32 {
	if c := t.nodes[ni].children[q]; c >= 0 {
		return c
	}
	t.nodes = append(t.nodes, emptyNode())
	c := int32(len(t.nodes) - 1)
	t.nodes[ni].children[q] = c
	return c
}

// flatten computes the mass and centre of mass of node ni's subtree
// bottom-up and appends the subtree's force-visible cells to t.flat in
// preorder. b is the cell's rect. A cell is written before its children
// and completed after them; a cell of zero mass is dropped together
// with its subtree, which a traversal would never enter.
//
// The mass-weighted sum starts from the depth-cap residue, adds the
// cell's own point, then each child's centre·mass in quadrant order,
// and is scaled by 1/mass when mass > 0 (zero centre otherwise). That
// fixed order is what makes every cluster term reproducible bit for bit.
func (t *Tree) flatten(ni int32, b geometry.Rect) (geometry.Vec2, float64) {
	n := t.nodes[ni]
	at := len(t.flat)
	t.flat = append(t.flat, flatNode{w: b.Width(), pt: -1})
	var com geometry.Vec2
	var mass float64
	if n.cap >= 0 {
		com, mass = t.caps[n.cap].sum, t.caps[n.cap].mass
	}
	if n.point >= 0 {
		m := t.massOf(n.point)
		com = com.Add(t.pts[n.point].Scale(m))
		mass += m
	}
	c := b.Center()
	for q, ci := range n.children {
		if ci < 0 {
			continue
		}
		ccom, cmass := t.flatten(ci, childRect(b, c, q))
		com = com.Add(ccom.Scale(cmass))
		mass += cmass
	}
	if mass > 0 {
		com = com.Scale(1 / mass)
	} else {
		com = geometry.Vec2{}
	}
	if mass == 0 {
		t.flat = t.flat[:at]
		return com, mass
	}
	f := &t.flat[at]
	f.skip = int32(len(t.flat))
	if n.point >= 0 {
		p := t.pts[n.point]
		f.x, f.y, f.m, f.pt = p.X, p.Y, t.massOf(n.point), n.point
	} else {
		f.x, f.y, f.m = com.X, com.Y, mass
		if n.cap >= 0 && t.caps[n.cap].mass > 0 {
			f.pt = -2 - n.cap
		}
	}
	return com, mass
}

// Bounds of the filtered opening test; see farFilter.
const (
	bandLo    = 1 - 1e-9
	bandHi    = 1 + 1e-9
	minD2     = 0x1p-900
	maxD2     = 0x1p900
	minTheta2 = 0x1p-100
	maxTheta2 = 0x1p100
)

// Repulsion returns acc plus the Barnes–Hut repulsion on a point at p
// with mass mi: the sum, over every cluster or point the theta opening
// criterion accepts (skipping point index exclude), of
//
//	d · (ck2·m / max(|d|², 1e-12)) · mi,   d = p − centre,
//
// which is embed.ForceParams.Repulsive(p, centre, m).Scale(mi) with
// ck2 = C·K·K, term for term. Terms are added to acc one at a time in
// traversal order. A cell of side w whose centre of mass lies at
// distance d is accepted as one cluster when d > 0 and w/d < theta.
// When the query point lies inside an accepted cell its own mass is
// counted again; theta < 1 keeps that case rare and the embedding
// tolerates the approximation.
func (t *Tree) Repulsion(p geometry.Vec2, exclude int32, theta, ck2, mi float64, acc geometry.Vec2) geometry.Vec2 {
	th2 := filterTheta2(theta)
	flat := t.flat
	for i := 0; i < len(flat); {
		n := &flat[i]
		dx, dy := p.X-n.x, p.Y-n.y
		d2 := dx*dx + dy*dy
		if n.pt >= 0 {
			if n.pt != exclude {
				acc = repel(acc, dx, dy, d2, ck2, n.m, mi)
			}
			i++
			continue
		}
		far, sure := farFilter(d2, n.w, th2)
		if !sure {
			far = farExact(dx, dy, n.w, theta)
		}
		if far {
			acc = repel(acc, dx, dy, d2, ck2, n.m, mi)
			i = int(n.skip)
			continue
		}
		if n.pt < -1 {
			// Near-field depth-capped residue: visit its aggregate so the
			// points folded at the depth cap are never lost.
			c := &t.caps[-2-n.pt]
			com := c.sum.Scale(1 / c.mass)
			rx, ry := p.X-com.X, p.Y-com.Y
			acc = repel(acc, rx, ry, rx*rx+ry*ry, ck2, c.mass, mi)
		}
		i++
	}
	return acc
}

// repel returns acc plus the repulsion term of mass m at offset (dx, dy)
// with squared length d2, in embed.ForceParams.Repulsive's operation
// order followed by the scaling by mi.
func repel(acc geometry.Vec2, dx, dy, d2, ck2, m, mi float64) geometry.Vec2 {
	if d2 < 1e-12 {
		d2 = 1e-12
	}
	s := ck2 * m / d2
	return geometry.Vec2{X: acc.X + dx*s*mi, Y: acc.Y + dy*s*mi}
}

// farFilter decides the opening test farExact without the hypot where
// that is provably safe, by comparing w² with θ²·d² (d2 = dx²+dy²,
// th2 = θ²); sure is false when farExact must decide. With d2 and θ² in
// normal range, the two sides of that comparison and the quotient
// w/hypot each carry a relative rounding error of a few units of 2⁻⁵³
// (under 10·2⁻⁵³ together), so outside a relative band of 1e-9 the
// squared test has the exact test's answer. Inside the band, or when d2
// is zero, subnormal, huge or NaN, or th2 is NaN (see filterTheta2),
// it is not sure. A subnormal or infinite w² needs no guard: against a
// normal θ²·d² it can only fall on the side the exact test also takes.
// The function stays small enough to inline into the force loop.
func farFilter(d2, w, th2 float64) (far, sure bool) {
	if d2 >= minD2 && d2 <= maxD2 {
		q, w2 := th2*d2, w*w
		if w2 < q*bandLo {
			return true, true
		}
		if w2 > q*bandHi {
			return false, true
		}
	}
	return false, false
}

// filterTheta2 returns θ² for farFilter, or NaN, which leaves every
// opening test to farExact, when theta is not a positive number whose
// square lies in normal range.
func filterTheta2(theta float64) float64 {
	th2 := theta * theta
	if !(theta > 0 && th2 >= minTheta2 && th2 <= maxTheta2) {
		return math.NaN()
	}
	return th2
}

// farExact is the Barnes–Hut opening test: a cell of side w whose
// centre of mass lies at offset (dx, dy) acts as one cluster when
// hypot(dx, dy) > 0 and w/hypot(dx, dy) < theta.
func farExact(dx, dy, w, theta float64) bool {
	d := math.Hypot(dx, dy)
	return d > 0 && w/d < theta
}

// Len returns the number of points in the tree.
func (t *Tree) Len() int {
	if len(t.nodes) == 0 {
		return 0
	}
	return int(t.nodes[0].count)
}

// TotalMass returns the total mass in the tree.
func (t *Tree) TotalMass() float64 {
	return t.total
}
