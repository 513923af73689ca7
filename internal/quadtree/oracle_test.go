package quadtree

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
)

// The differential oracle: the pointer quadtree with a recursive,
// callback-driven traversal that the flat layout and the fused
// Repulsion kernel replace. It is kept verbatim (types renamed) so the
// kernel can be held to it bit for bit.

type oracleNode struct {
	children [4]int32 // -1 when absent
	com      geometry.Vec2
	mass     float64
	capSum   geometry.Vec2 // mass-weighted position sum of depth-capped points
	capMass  float64       // total mass of depth-capped points in this cell
	point    int32         // point index for a leaf, -1 for internal
	count    int32         // points in subtree
}

type oracleTree struct {
	nodes  []oracleNode
	bounds geometry.Rect
	pts    []geometry.Vec2
	mass   []float64
}

func buildOracle(pts []geometry.Vec2, mass []float64) *oracleTree {
	t := &oracleTree{}
	if len(pts) == 0 {
		return t
	}
	t.bounds = oracleSquareBounds(geometry.BoundingRect(pts))
	t.pts = pts
	t.mass = mass
	t.nodes = make([]oracleNode, 1, 2*len(pts))
	t.nodes[0] = oracleEmptyNode()
	for i := range pts {
		t.insert(0, int32(i), t.bounds, 0)
	}
	t.aggregate(0)
	return t
}

func oracleEmptyNode() oracleNode {
	return oracleNode{children: [4]int32{-1, -1, -1, -1}, point: -1}
}

func oracleSquareBounds(r geometry.Rect) geometry.Rect {
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

func oracleQuadrant(b geometry.Rect, p geometry.Vec2) (int, geometry.Rect) {
	c := b.Center()
	q := 0
	x0, y0, x1, y1 := b.X0, b.Y0, c.X, c.Y
	if p.X > c.X {
		q |= 1
		x0, x1 = c.X, b.X1
	}
	if p.Y > c.Y {
		q |= 2
		y0, y1 = c.Y, b.Y1
	}
	return q, geometry.Rect{X0: x0, Y0: y0, X1: x1, Y1: y1}
}

func (t *oracleTree) massOf(i int32) float64 {
	if t.mass == nil {
		return 1
	}
	return t.mass[i]
}

func (t *oracleTree) insert(ni int32, pi int32, b geometry.Rect, depth int) {
	n := &t.nodes[ni]
	n.count++
	if depth >= maxDepth {
		// Depth cap: fold the point into this cell's aggregate only.
		m := t.massOf(pi)
		n.capSum = n.capSum.Add(t.pts[pi].Scale(m))
		n.capMass += m
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
		q, qb := oracleQuadrant(b, t.pts[old])
		ci := t.child(ni, q)
		t.insert(ci, old, qb, depth+1)
	}
	q, qb := oracleQuadrant(b, t.pts[pi])
	ci := t.child(ni, q)
	t.insert(ci, pi, qb, depth+1)
}

func (t *oracleTree) child(ni int32, q int) int32 {
	if c := t.nodes[ni].children[q]; c >= 0 {
		return c
	}
	t.nodes = append(t.nodes, oracleEmptyNode())
	c := int32(len(t.nodes) - 1)
	t.nodes[ni].children[q] = c
	return c
}

// aggregate computes subtree masses and centres bottom-up.
func (t *oracleTree) aggregate(ni int32) (geometry.Vec2, float64) {
	n := &t.nodes[ni]
	com, mass := n.capSum, n.capMass // depth-capped accumulation, usually zero
	if n.point >= 0 {
		m := t.massOf(n.point)
		com = com.Add(t.pts[n.point].Scale(m))
		mass += m
	}
	for _, c := range n.children {
		if c < 0 {
			continue
		}
		ccom, cmass := t.aggregate(c)
		com = com.Add(ccom.Scale(cmass))
		mass += cmass
	}
	if mass > 0 {
		n.com = com.Scale(1 / mass)
	}
	n.mass = mass
	return n.com, n.mass
}

// ForEachCluster traverses the tree for query point p with opening
// parameter theta, invoking visit once per accepted cluster or point
// with its centre of mass, aggregate mass, and point index (-1 for an
// aggregated internal cell). The query point itself (exclude index) is
// skipped.
func (t *oracleTree) ForEachCluster(p geometry.Vec2, exclude int32, theta float64, visit func(com geometry.Vec2, mass float64, point int32)) {
	if len(t.nodes) == 0 {
		return
	}
	t.walk(0, t.bounds, p, exclude, theta, visit)
}

func (t *oracleTree) walk(ni int32, b geometry.Rect, p geometry.Vec2, exclude int32, theta float64, visit func(geometry.Vec2, float64, int32)) {
	n := &t.nodes[ni]
	if n.count == 0 || n.mass == 0 {
		return
	}
	if n.point >= 0 && n.count == 1 {
		if n.point != exclude {
			visit(t.pts[n.point], t.massOf(n.point), n.point)
		}
		return
	}
	d := p.Dist(n.com)
	if d > 0 && b.Width()/d < theta {
		// Accept the cell as a single far-field cluster. When the
		// query point is inside the subtree this slightly
		// double-counts it; theta < 1 keeps that case rare and the
		// embedding tolerates the approximation.
		visit(n.com, n.mass, -1)
		return
	}
	if n.point >= 0 && n.point != exclude {
		visit(t.pts[n.point], t.massOf(n.point), n.point)
	}
	if n.capMass > 0 {
		// Near-field depth-capped residue: visit its aggregate so the
		// points folded at the depth cap are never lost.
		visit(n.capSum.Scale(1/n.capMass), n.capMass, -1)
	}
	c := b.Center()
	for q, ci := range n.children {
		if ci < 0 {
			continue
		}
		qb := b
		if q&1 == 0 {
			qb.X1 = c.X
		} else {
			qb.X0 = c.X
		}
		if q&2 == 0 {
			qb.Y1 = c.Y
		} else {
			qb.Y0 = c.Y
		}
		t.walk(ci, qb, p, exclude, theta, visit)
	}
}

// The force parameters of the differential tests. They are variables so
// that C·K·K is folded at run time, left to right, as the force loops
// fold it.
var fpC, fpK = 0.2, 1.3

// repulsive is embed.ForceParams.Repulsive verbatim.
func repulsive(at, from geometry.Vec2, mass float64) geometry.Vec2 {
	d := at.Sub(from)
	dist2 := d.Dot(d)
	if dist2 < 1e-12 {
		dist2 = 1e-12
	}
	return d.Scale(fpC * fpK * fpK * mass / dist2)
}

// cloud returns n points uniform in [0, scale)², of which points
// 1..dups repeat point 0, with masses by massMode: 0 nil (unit), 1 in
// [0.5, 1.5), 2 as 1 but every third zero, 3 signed in [-1, 1).
func cloud(seed int64, n, dups, massMode int, scale float64) ([]geometry.Vec2, []float64) {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geometry.Vec2, n)
	for i := range pts {
		pts[i] = geometry.Vec2{X: rng.Float64() * scale, Y: rng.Float64() * scale}
	}
	for i := 1; i <= dups && i < n; i++ {
		pts[i] = pts[0]
	}
	if massMode == 0 {
		return pts, nil
	}
	mass := make([]float64, n)
	for i := range mass {
		switch {
		case massMode == 2 && i%3 == 0:
		case massMode == 3:
			mass[i] = 2*rng.Float64() - 1
		default:
			mass[i] = rng.Float64() + 0.5
		}
	}
	return pts, mass
}

type visitRec struct {
	x, y, m uint64
	pt      int32
}

func record(seq *[]visitRec) func(geometry.Vec2, float64, int32) {
	return func(com geometry.Vec2, m float64, pt int32) {
		*seq = append(*seq, visitRec{math.Float64bits(com.X), math.Float64bits(com.Y), math.Float64bits(m), pt})
	}
}

// checkAgainstOracle holds the flat layout and the Repulsion kernel to
// the oracle for every point of the cloud (excluding itself) and for a
// few free queries (exclude = -1), extra among them: the flat walk must
// visit the same clusters in the same order, and the kernel's sum must
// equal the oracle's closure sum bit for bit.
func checkAgainstOracle(t testing.TB, pts []geometry.Vec2, mass []float64, theta float64, extra ...geometry.Vec2) {
	t.Helper()
	o := buildOracle(pts, mass)
	var tr Tree
	tr.Rebuild(pts, mass)
	ck2 := fpC * fpK * fpK
	type query struct {
		p       geometry.Vec2
		exclude int32
		mi      float64
	}
	var qs []query
	for i, p := range pts {
		qs = append(qs, query{p, int32(i), o.massOf(int32(i))})
	}
	free := append([]geometry.Vec2{{}}, extra...)
	if len(pts) > 0 {
		b := o.bounds
		free = append(free, pts[0], b.Center(), geometry.Vec2{X: b.X0, Y: b.Y1}, geometry.Vec2{X: 3*b.X1 - 2*b.X0, Y: b.Y0})
	}
	for _, p := range free {
		qs = append(qs, query{p, -1, 1.5})
	}
	for _, q := range qs {
		var want, got []visitRec
		o.ForEachCluster(q.p, q.exclude, theta, record(&want))
		tr.forEachFlat(q.p, q.exclude, theta, record(&got))
		if len(got) != len(want) {
			t.Fatalf("query %v exclude %d theta %v: flat walk visits %d clusters, oracle %d", q.p, q.exclude, theta, len(got), len(want))
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("query %v exclude %d theta %v: visit %d is %+v, oracle %+v", q.p, q.exclude, theta, k, got[k], want[k])
			}
		}
		acc0 := geometry.Vec2{X: 0.25, Y: -0.125}
		ref := acc0
		o.ForEachCluster(q.p, q.exclude, theta, func(com geometry.Vec2, m float64, _ int32) {
			ref = ref.Add(repulsive(q.p, com, m).Scale(q.mi))
		})
		rep := tr.Repulsion(q.p, q.exclude, theta, ck2, q.mi, acc0)
		if math.Float64bits(rep.X) != math.Float64bits(ref.X) || math.Float64bits(rep.Y) != math.Float64bits(ref.Y) {
			t.Fatalf("query %v exclude %d theta %v: Repulsion %v, oracle %v", q.p, q.exclude, theta, rep, ref)
		}
	}
	if len(pts) > 0 && math.Float64bits(tr.TotalMass()) != math.Float64bits(o.nodes[0].mass) {
		t.Fatalf("total mass %v, oracle %v", tr.TotalMass(), o.nodes[0].mass)
	}
}

var oracleCases = []struct {
	name             string
	seed             int64
	n, dups, massMod int
	scale            float64
}{
	{"random", 1, 600, 0, 1, 1},
	{"unit mass", 2, 400, 0, 0, 1},
	{"duplicates", 3, 300, 70, 1, 1},
	{"duplicates unit mass", 4, 120, 100, 0, 1},
	{"zero masses", 5, 400, 64, 2, 1},
	{"signed masses", 6, 300, 0, 3, 1},
	{"subnormal offsets", 7, 200, 0, 1, 1e-160},
	{"overflowing offsets", 8, 200, 0, 1, 1e160},
	{"layout scale", 9, 1000, 0, 0, 128},
}

// TestRepulsionMatchesOracle: the fused kernel over the flat layout is
// bit-identical to the recursive closure walk it replaces.
func TestRepulsionMatchesOracle(t *testing.T) {
	for _, c := range oracleCases {
		t.Run(c.name, func(t *testing.T) {
			pts, mass := cloud(c.seed, c.n, c.dups, c.massMod, c.scale)
			for _, theta := range []float64{0.5, 0.9, 1.2} {
				checkAgainstOracle(t, pts, mass, theta)
			}
		})
	}
}

// TestRepulsionFilterBand crafts queries whose w/d against a cluster
// lies within the filter's relative band of θ, so the opening test falls
// back to the exact hypot expression, and holds the kernel to the
// oracle there. Some of them must be queries on which the bare squared
// test w² < θ²d² and the exact test disagree: the cases the fallback
// exists for.
func TestRepulsionFilterBand(t *testing.T) {
	pts, mass := cloud(3, 500, 0, 1, 1)
	tr := Build(pts, mass)
	for _, theta := range []float64{0.5, 0.9, 1.2} {
		var band []geometry.Vec2
		disagree := 0
		for _, f := range tr.flat {
			if f.pt != -1 {
				continue
			}
			// Off-axis (3-4-5 direction), so both tests round.
			x, y := f.x+0.6*f.w/theta, f.y+0.8*f.w/theta
			for k := -8; k <= 8; k++ {
				p := geometry.Vec2{X: math.Float64frombits(math.Float64bits(x) + uint64(k)), Y: y}
				dx, dy := p.X-f.x, p.Y-f.y
				d2 := dx*dx + dy*dy
				if r := f.w * f.w / (theta * theta * d2); math.Abs(r-1) > 1e-9 {
					t.Fatalf("theta %v ulp %d: w²/(θ²d²) = %v is outside the filter band", theta, k, r)
				}
				if (f.w*f.w < theta*theta*d2) != farExact(dx, dy, f.w, theta) {
					disagree++
				}
				band = append(band, p)
			}
		}
		if disagree == 0 {
			t.Fatalf("theta %v: no band query separates the squared test from the exact one", theta)
		}
		checkAgainstOracle(t, pts, mass, theta, band...)
	}
}

// FuzzRepulsion drives the differential check over generated clouds:
// point count, duplicates (the depth cap), mass mode, coordinate scale
// and theta are all fuzzed.
func FuzzRepulsion(f *testing.F) {
	for _, c := range oracleCases {
		for _, theta := range []float64{0.5, 0.9, 1.2} {
			f.Add(c.seed, uint16(c.n), uint8(c.dups), uint8(c.massMod), c.scale, theta)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dups, massMode uint8, scale, theta float64) {
		pts, mass := cloud(seed, int(n%700), int(dups), int(massMode%4), scale)
		checkAgainstOracle(t, pts, mass, theta)
	})
}

// The build oracle: the pointer build the direct preorder build
// replaces, kept verbatim (types renamed) so Rebuild can be held to it
// bit for bit. It inserts the points one at a time into a node arena,
// then flattens the force-visible cells into preorder.

type ptrNode struct {
	children [4]int32 // -1 when absent
	point    int32    // point index for a leaf, -1 otherwise
	count    int32    // points in subtree
	cap      int32    // index into ptrTree.caps, -1 when no point hit the depth cap here
}

type ptrTree struct {
	nodes []ptrNode
	caps  []capCell
	flat  []flatNode
	pts   []geometry.Vec2
	mass  []float64
	total float64
}

func buildPointer(pts []geometry.Vec2, mass []float64) *ptrTree {
	t := &ptrTree{}
	if len(pts) == 0 {
		return t
	}
	bounds := squareBounds(geometry.BoundingRect(pts))
	t.pts = pts
	t.mass = mass
	t.nodes = append(t.nodes, ptrEmptyNode())
	for i := range pts {
		t.insert(0, int32(i), bounds, 0)
	}
	_, t.total = t.flatten(0, bounds)
	return t
}

func ptrEmptyNode() ptrNode {
	return ptrNode{children: [4]int32{-1, -1, -1, -1}, point: -1, cap: -1}
}

func ptrQuadrant(b geometry.Rect, p geometry.Vec2) (int, geometry.Rect) {
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

func (t *ptrTree) massOf(i int32) float64 {
	if t.mass == nil {
		return 1
	}
	return t.mass[i]
}

func (t *ptrTree) insert(ni int32, pi int32, b geometry.Rect, depth int) {
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
		q, qb := ptrQuadrant(b, t.pts[old])
		ci := t.child(ni, q)
		t.insert(ci, old, qb, depth+1)
	}
	q, qb := ptrQuadrant(b, t.pts[pi])
	ci := t.child(ni, q)
	t.insert(ci, pi, qb, depth+1)
}

func (t *ptrTree) child(ni int32, q int) int32 {
	if c := t.nodes[ni].children[q]; c >= 0 {
		return c
	}
	t.nodes = append(t.nodes, ptrEmptyNode())
	c := int32(len(t.nodes) - 1)
	t.nodes[ni].children[q] = c
	return c
}

func (t *ptrTree) flatten(ni int32, b geometry.Rect) (geometry.Vec2, float64) {
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

// sameBits reports whether a and b have the same bit pattern.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkAgainstPointerBuild holds Rebuild, run on tr, to the pointer
// build: the flat arrays agree entry for entry and bit for bit, and so
// do the tree totals. The pointer build numbers its caps in creation
// order and keeps the ones of non-positive mass, while Rebuild stores
// only the caps a cell references, in preorder; so a cap reference is
// compared through the cap it names, and Rebuild's references must
// count 0, 1, 2, ... through its whole caps array.
func checkAgainstPointerBuild(t testing.TB, tr *Tree, pts []geometry.Vec2, mass []float64) {
	t.Helper()
	o := buildPointer(pts, mass)
	tr.Rebuild(pts, mass)
	if len(tr.flat) != len(o.flat) {
		t.Fatalf("%d points: %d flat cells, pointer build %d", len(pts), len(tr.flat), len(o.flat))
	}
	nextCap := 0
	for k, f := range tr.flat {
		g := o.flat[k]
		if !sameBits(f.x, g.x) || !sameBits(f.y, g.y) || !sameBits(f.m, g.m) || !sameBits(f.w, g.w) || f.skip != g.skip {
			t.Fatalf("cell %d: %+v, pointer build %+v", k, f, g)
		}
		if (f.pt < -1) != (g.pt < -1) || (f.pt >= -1 && f.pt != g.pt) {
			t.Fatalf("cell %d: pt %d, pointer build %d", k, f.pt, g.pt)
		}
		if f.pt >= -1 {
			continue
		}
		if -2-f.pt != int32(nextCap) {
			t.Fatalf("cell %d references cap %d, want %d (preorder)", k, -2-f.pt, nextCap)
		}
		c, d := tr.caps[-2-f.pt], o.caps[-2-g.pt]
		if !sameBits(c.sum.X, d.sum.X) || !sameBits(c.sum.Y, d.sum.Y) || !sameBits(c.mass, d.mass) {
			t.Fatalf("cell %d: cap %+v, pointer build %+v", k, c, d)
		}
		nextCap++
	}
	if nextCap != len(tr.caps) {
		t.Fatalf("%d caps stored, %d referenced", len(tr.caps), nextCap)
	}
	if !sameBits(tr.TotalMass(), o.total) {
		t.Fatalf("total mass %v, pointer build %v", tr.TotalMass(), o.total)
	}
	if tr.Len() != len(pts) {
		t.Fatalf("Len %d, want %d", tr.Len(), len(pts))
	}
}

// capCloud returns cloud(seed, n, dups, massMode, scale) with the
// coordinate and mass hazards of coordMode mixed in: 1 adds clusters
// of points a few ulps apart that only the depth cap separates from
// each other, 2 NaN coordinates, 3 infinite coordinates, 4 NaN masses
// (with massMode forced non-nil).
func capCloud(seed int64, n, dups, massMode, coordMode int, scale float64) ([]geometry.Vec2, []float64) {
	if coordMode == 4 && massMode == 0 {
		massMode = 1
	}
	pts, mass := cloud(seed, n, dups, massMode, scale)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for i := range pts {
		if rng.Intn(7) != 0 {
			continue
		}
		switch coordMode {
		case 1:
			base := pts[rng.Intn(len(pts))]
			k := uint64(rng.Intn(5))
			pts[i] = geometry.Vec2{X: math.Float64frombits(math.Float64bits(base.X) + k), Y: base.Y}
		case 2:
			pts[i].X = math.NaN()
		case 3:
			pts[i].Y = math.Inf(1 - 2*rng.Intn(2))
		case 4:
			mass[i] = math.NaN()
		}
	}
	return pts, mass
}

// TestRebuildMatchesPointerBuild: the direct preorder build writes the
// pointer build's flat layout, caps and total bit for bit, over random
// clouds with duplicates, depth-cap clusters and every mass mode, and
// a reused tree gives the same answers as a fresh one.
func TestRebuildMatchesPointerBuild(t *testing.T) {
	var reused Tree
	maxCaps := 0
	for seed := int64(0); seed < 300; seed++ {
		n := []int{0, 1, 2, 3, 17, 470, 1024}[seed%7]
		dups := []int{0, 0, 5, 40}[seed%4]
		pts, mass := capCloud(seed, n, dups, int(seed/7)%4, int(seed/28)%5, []float64{1, 128, 1e-160}[seed%3])
		checkAgainstPointerBuild(t, &reused, pts, mass)
		checkAgainstPointerBuild(t, &Tree{}, pts, mass)
		maxCaps = max(maxCaps, len(reused.caps))
	}
	if maxCaps < 2 {
		t.Fatalf("no cloud reached the depth cap in two cells (max %d caps)", maxCaps)
	}
	// Every point identical, and every point within a few ulps: the
	// whole cloud is folded at the depth cap.
	for _, mode := range []int{0, 1, 2} {
		pts, mass := cloud(9, 64, 63, mode, 1)
		for i := range pts {
			pts[i].Y = math.Float64frombits(math.Float64bits(pts[i].Y) + uint64(i%3))
		}
		checkAgainstPointerBuild(t, &reused, pts, mass)
	}
}

// FuzzRebuild drives the build differential over generated clouds:
// duplicates, depth-cap clusters, unit, zero, signed and NaN masses,
// and NaN and infinite coordinates.
func FuzzRebuild(f *testing.F) {
	for seed := int64(0); seed < 20; seed++ {
		f.Add(seed, uint16(40*seed), uint8(seed%3*20), uint8(seed%4), uint8(seed%5), 1.0)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dups, massMode, coordMode uint8, scale float64) {
		pts, mass := capCloud(seed, int(n%1500), int(dups), int(massMode%4), int(coordMode%5), scale)
		checkAgainstPointerBuild(t, &Tree{}, pts, mass)
	})
}
