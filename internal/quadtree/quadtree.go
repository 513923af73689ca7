// Package quadtree implements the Barnes–Hut quadtree behind every
// repulsion sum of the force-directed embeddings: each rank's own-box
// near field in the fixed-lattice parallel embedding, and the
// sequential multilevel baseline. It gives O(n log n) approximate
// evaluation of long-range repulsive forces with the classic theta
// opening criterion.
//
// A build writes the cells that can contribute force straight into one
// preorder array: top down, it stable-partitions an index permutation
// of the points into each cell's four quadrants and recurses into them
// in quadrant order. The force kernel (Repulsion) walks that array
// without recursion or callbacks: an accepted cluster jumps past its
// subtree, anything else steps to the next entry. RepulsionGroup walks
// it once for up to four points in lock step, each point adding exactly
// the terms of its own Repulsion (see DESIGN.md, "The Barnes–Hut force
// kernel").
package quadtree

import (
	"math"

	"repro/internal/geometry"
)

const maxDepth = 48

// capCell accumulates the points folded into a cell at the depth cap.
type capCell struct {
	sum  geometry.Vec2 // mass-weighted position sum
	mass float64
}

// flatNode is one force-visible cell (nonzero subtree mass) in DFS
// preorder, children in quadrant order 0..3. For a leaf (pt ≥ 0), x, y
// and m are the raw point and its mass. For any other cell they are the
// subtree's centre of mass and total mass, w is the cell side, and skip
// is the index just past the cell's subtree. pt < -1 marks a cell at
// the depth cap whose residue caps[-2-pt] is visited on its own when
// the cell is opened. A cell holding a single point below the depth cap
// is a leaf; a cell holding more is split, so no other cell holds a
// point of its own.
type flatNode struct {
	x, y, m, w float64
	pt, skip   int32
}

// Tree is a Barnes–Hut quadtree over weighted points in the plane.
type Tree struct {
	caps []capCell
	flat []flatNode
	pts  []geometry.Vec2
	mass []float64
	n    int // points in the tree

	// Build scratch, reused across rebuilds: two index buffers that
	// the levels of the build partition into alternately (see build),
	// and the quadrant of each point of the cell being partitioned.
	// After a build, order holds the points in tree preorder (Order).
	order, spare []int32
	quad         []uint8
}

// Rebuild reconstructs the tree in place over a new point set, reusing
// the storage of previous builds. Iterative force loops that rebuild
// the tree every step go through here to stay allocation-free in
// steady state.
func (t *Tree) Rebuild(pts []geometry.Vec2, mass []float64) {
	t.caps, t.flat = t.caps[:0], t.flat[:0]
	t.n = len(pts)
	if len(pts) == 0 {
		t.pts, t.mass = nil, nil
		return
	}
	bounds := squareBounds(geometry.BoundingRect(pts))
	t.pts = pts
	t.mass = mass
	n := len(pts)
	if cap(t.order) < n {
		t.order = make([]int32, n)
		t.spare = make([]int32, n)
		t.quad = make([]uint8, n)
	}
	t.order, t.spare, t.quad = t.order[:n], t.spare[:n], t.quad[:n]
	for i := range t.order {
		t.order[i] = int32(i)
	}
	if cap(t.flat) == 0 {
		t.flat = make([]flatNode, 0, 2*n)
	}
	t.build(t.order, t.spare, bounds, 0)
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

func (t *Tree) massOf(i int32) float64 {
	if t.mass == nil {
		return 1
	}
	return t.mass[i]
}

// Order returns every point of the tree once, in tree preorder: the
// points in the order of the leaves and depth-cap cells that hold them,
// zero-mass points at the place of their dropped leaves, and the points
// of one depth-cap cell in index order. Consecutive points of this order
// lie close together and mostly take the same opening decisions, which
// is what RepulsionGroup's lanes share. The slice is the tree's own
// storage: read-only, and valid until the next Rebuild.
func (t *Tree) Order() []int32 {
	return t.order[:t.n]
}

// build writes the cell of rect b at the given depth, holding the points
// idx (len(idx) > 0, in ascending index order), and its force-visible
// subtree to t.flat in preorder, and returns the cell's centre of mass
// and total mass. spare is scratch of idx's length, disjoint from it. A
// cell is written before its children and completed after them; a cell
// of zero mass is dropped together with its subtree, which a traversal
// would never enter.
//
// A cell at the depth cap folds its points into a capCell in index
// order; below the cap, a single point makes a leaf, and more are
// stable-partitioned into spare by quadrant (p.X > c.X sets bit 0,
// p.Y > c.Y bit 1, c = b.Center()) and built child by child in
// quadrant order, each child with its range of spare as its points and
// the same range of idx as its scratch. The mass-weighted sum starts
// from the depth-cap residue, adds the cell's own point, then each
// child's centre·mass in quadrant order, and is scaled by 1/mass when
// mass > 0 (zero centre otherwise). That fixed order is what makes
// every cluster term reproducible bit for bit.
//
// idx and spare are the same range of t.order and t.spare, in turn by
// depth, so t.order holds idx at even depths and spare at odd ones. A
// leaf or a depth-cap cell at an odd depth copies its points into
// spare, which puts every point into t.order in preorder; no ancestor
// reads that range again.
func (t *Tree) build(idx, spare []int32, b geometry.Rect, depth int) (geometry.Vec2, float64) {
	if depth%2 == 1 && (len(idx) == 1 || depth >= maxDepth) {
		copy(spare, idx)
	}
	if len(idx) == 1 && depth < maxDepth {
		return t.leaf(idx[0], b.Width())
	}
	at := len(t.flat)
	t.flat = append(t.flat, flatNode{w: b.Width(), pt: -1})
	var com geometry.Vec2
	var mass float64
	capped := false
	if depth >= maxDepth {
		var c capCell
		for _, pi := range idx {
			m := t.massOf(pi)
			c.sum = c.sum.Add(t.pts[pi].Scale(m))
			c.mass += m
		}
		com, mass = c.sum, c.mass
		if c.mass > 0 {
			capped = true
			t.caps = append(t.caps, c)
		}
	} else {
		c := b.Center()
		quad := t.quad[:len(idx)]
		var start [5]int
		for k, pi := range idx {
			p := t.pts[pi]
			q := uint8(0)
			if p.X > c.X {
				q |= 1
			}
			if p.Y > c.Y {
				q |= 2
			}
			quad[k] = q
			start[q+1]++
		}
		for q := 1; q <= 4; q++ {
			start[q] += start[q-1]
		}
		next := start
		for k, pi := range idx {
			q := quad[k]
			spare[next[q]] = pi
			next[q]++
		}
		for q := 0; q < 4; q++ {
			lo, hi := start[q], start[q+1]
			if lo == hi {
				continue
			}
			ccom, cmass := t.build(spare[lo:hi], idx[lo:hi], childRect(b, c, q), depth+1)
			com = com.Add(ccom.Scale(cmass))
			mass += cmass
		}
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
	f.x, f.y, f.m, f.skip = com.X, com.Y, mass, int32(len(t.flat))
	if capped {
		f.pt = int32(-1 - len(t.caps))
	}
	return com, mass
}

// leaf writes the leaf cell of side w holding point pi alone, unless
// its mass is zero, and returns the cell's centre of mass and mass with
// build's arithmetic for a cell whose only term is its own point.
func (t *Tree) leaf(pi int32, w float64) (geometry.Vec2, float64) {
	var com geometry.Vec2
	var mass float64
	p, m := t.pts[pi], t.massOf(pi)
	com = com.Add(p.Scale(m))
	mass += m
	if mass > 0 {
		com = com.Scale(1 / mass)
	} else {
		com = geometry.Vec2{}
	}
	if mass != 0 {
		t.flat = append(t.flat, flatNode{x: p.X, y: p.Y, m: m, w: w, pt: pi, skip: int32(len(t.flat) + 1)})
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
	return t.n
}
