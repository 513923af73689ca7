package gen

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/geometry"
	"repro/internal/graph"
)

// buildMesh triangulates in.pts, drops edges longer than in.maxEdge
// (when positive) and edges in.reject (when non-nil) refuses, and
// returns the largest component with its vertices in Morton order, as
// mortonRelabel would number them.
//
// The points are sorted into Morton order once and inserted in that
// order, so a point's insertion index is its final vertex id and the
// CSR is built once, already relabelled. A mesh the filters split into
// several components falls back to LargestComponent and mortonRelabel
// on the original labels, since the kept component's own bounding box
// sets its Morton keys.
func buildMesh(in meshInput) *Generated {
	order := mortonOrder(in.pts) // order[i] = original index of vertex i
	coords := make([]geometry.Vec2, len(in.pts))
	for i, o := range order {
		coords[i] = in.pts[o]
	}
	b := graph.NewBuilder(len(coords))
	triangulate(coords).eachEdge(func(u, v int32) {
		a, c := coords[u], coords[v]
		if in.maxEdge > 0 && a.Dist(c) > in.maxEdge || in.reject != nil && in.reject(a, c) {
			return
		}
		b.AddEdge(u, v)
	})
	g := b.Build()
	if _, count := graph.Components(g); count > 1 {
		orig := graph.NewBuilder(g.NumVertices())
		for u := int32(0); u < int32(g.NumVertices()); u++ {
			for _, v := range g.Neighbors(u) {
				if u < v {
					orig.AddEdge(order[u], order[v])
				}
			}
		}
		g, coords = LargestComponent(orig.Build(), in.pts)
		g, coords = mortonRelabel(g, coords)
	}
	return &Generated{Name: in.name, G: g, Coords: coords}
}

// meshInput is a point set and the edge filters buildMesh applies to
// its triangulation.
type meshInput struct {
	name    string
	pts     []geometry.Vec2
	maxEdge float64 // longest edge kept; 0 keeps every edge
	// reject drops an edge when non-nil and true. buildMesh may pass
	// the endpoints in either order.
	reject func(a, b geometry.Vec2) bool
}

// tri is one triangle. Edge e (0,1,2) is the edge opposite vertex
// verts[e], i.e. it joins verts[(e+1)%3] and verts[(e+2)%3]; adj[e] is
// the triangle sharing that edge, or -1 on the hull.
type tri struct {
	verts [3]int32
	adj   [3]int32
	dead  bool
}

// triangulator builds a Delaunay triangulation by incremental
// insertion with Lawson edge flips, locating each point by walking from
// the previously modified triangle. Inserting points in Morton
// (Z-curve) order keeps that walk short, which makes construction
// near-linear for the jittered point sets the generators produce.
// Points are assumed to be in general position up to a small epsilon
// (the generators jitter their points to guarantee this).
type triangulator struct {
	pts   []geometry.Vec2 // points plus 3 super-triangle vertices
	n     int             // number of real points
	tris  []tri
	last  int32   // a live triangle near the last insertion, walk start
	stack []int32 // legalisation stack, reused across inserts
}

// triangulate inserts pts in index order and returns the finished
// triangulation; vertex i is pts[i].
func triangulate(pts []geometry.Vec2) *triangulator {
	t := newTriangulator(pts)
	for i := range pts {
		t.insert(int32(i))
	}
	return t
}

func newTriangulator(pts []geometry.Vec2) *triangulator {
	n := len(pts)
	all := make([]geometry.Vec2, n, n+3)
	copy(all, pts)
	r := geometry.Rect{X0: -1, Y0: -1, X1: 1, Y1: 1}
	if n > 0 {
		r = geometry.BoundingRect(pts)
	}
	c := r.Center()
	span := math.Max(r.Width(), r.Height()) + 1
	// A super-triangle comfortably containing every point.
	big := 64 * span
	all = append(all,
		geometry.Vec2{X: c.X - big, Y: c.Y - big/2},
		geometry.Vec2{X: c.X + big, Y: c.Y - big/2},
		geometry.Vec2{X: c.X, Y: c.Y + big},
	)
	// Each insert kills one triangle and appends three.
	t := &triangulator{pts: all, n: n, tris: make([]tri, 1, 3*n+1)}
	t.tris[0] = tri{
		verts: [3]int32{int32(n), int32(n + 1), int32(n + 2)},
		adj:   [3]int32{-1, -1, -1},
	}
	return t
}

// orient2d returns twice the signed area of triangle (a, b, c):
// positive when counter-clockwise.
func orient2d(a, b, c geometry.Vec2) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// inCircle reports whether d lies strictly inside the circumcircle of
// the counter-clockwise triangle (a, b, c).
func inCircle(a, b, c, d geometry.Vec2) bool {
	ax, ay := a.X-d.X, a.Y-d.Y
	bx, by := b.X-d.X, b.Y-d.Y
	cx, cy := c.X-d.X, c.Y-d.Y
	det := (ax*ax+ay*ay)*(bx*cy-cx*by) -
		(bx*bx+by*by)*(ax*cy-cx*ay) +
		(cx*cx+cy*cy)*(ax*by-bx*ay)
	return det > 1e-12
}

// locate walks from t.last to a triangle containing point p (index pi).
func (t *triangulator) locate(pi int32) int32 {
	p := t.pts[pi]
	cur := t.last
	if t.tris[cur].dead {
		// Find any live triangle; the caller keeps last fresh so this
		// is a cold path.
		for i := range t.tris {
			if !t.tris[i].dead {
				cur = int32(i)
				break
			}
		}
	}
	for steps := 0; steps < 4*len(t.tris)+64; steps++ {
		tr := &t.tris[cur]
		moved := false
		for e := 0; e < 3; e++ {
			u := t.pts[tr.verts[(e+1)%3]]
			v := t.pts[tr.verts[(e+2)%3]]
			if orient2d(u, v, p) < -1e-12 {
				next := tr.adj[e]
				if next < 0 {
					break // outside hull: cannot happen inside super-tri
				}
				cur = next
				moved = true
				break
			}
		}
		if !moved {
			return cur
		}
	}
	// Walk failed to converge (numerically degenerate input): fall
	// back to exhaustive search.
	for i := range t.tris {
		tr := &t.tris[i]
		if tr.dead {
			continue
		}
		ok := true
		for e := 0; e < 3; e++ {
			u := t.pts[tr.verts[(e+1)%3]]
			v := t.pts[tr.verts[(e+2)%3]]
			if orient2d(u, v, p) < -1e-9 {
				ok = false
				break
			}
		}
		if ok {
			return int32(i)
		}
	}
	panic(fmt.Sprintf("gen: Delaunay locate failed for point %d", pi))
}

// edgeIndexOf returns which edge of triangle ti faces triangle other.
func (t *triangulator) edgeIndexOf(ti, other int32) int {
	for e := 0; e < 3; e++ {
		if t.tris[ti].adj[e] == other {
			return e
		}
	}
	panic("gen: Delaunay adjacency corrupted")
}

// insert adds point pi with a 1→3 split followed by Lawson
// legalisation.
func (t *triangulator) insert(pi int32) {
	ti := t.locate(pi)
	old := t.tris[ti]
	t.tris[ti].dead = true
	// Three new triangles: pi with each edge of old.
	base := int32(len(t.tris))
	ids := [3]int32{base, base + 1, base + 2}
	for e := 0; e < 3; e++ {
		a := old.verts[(e+1)%3]
		b := old.verts[(e+2)%3]
		nt := tri{
			// Vertex 0 is pi, so edge 0 (opposite pi) is the old edge.
			verts: [3]int32{pi, a, b},
			adj:   [3]int32{old.adj[e], ids[(e+1)%3], ids[(e+2)%3]},
		}
		t.tris = append(t.tris, nt)
		if old.adj[e] >= 0 {
			oe := t.edgeIndexOf(old.adj[e], ti)
			t.tris[old.adj[e]].adj[oe] = ids[e]
		}
	}
	t.last = ids[0]
	// Legalise the three edges opposite pi.
	stack := append(t.stack[:0], ids[0], ids[1], ids[2])
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.tris[cur].dead {
			continue
		}
		// In each stacked triangle, vertex 0 is pi and edge 0 faces
		// the potentially illegal neighbour... after flips that
		// invariant moves, so locate pi's edge explicitly.
		pe := -1
		for e := 0; e < 3; e++ {
			if t.tris[cur].verts[e] == pi {
				pe = e
				break
			}
		}
		if pe < 0 {
			continue
		}
		nb := t.tris[cur].adj[pe]
		if nb < 0 {
			continue
		}
		// Opposite vertex in the neighbour.
		ne := t.edgeIndexOf(nb, cur)
		q := t.tris[nb].verts[ne]
		a := t.tris[cur].verts[(pe+1)%3]
		b := t.tris[cur].verts[(pe+2)%3]
		if !inCircle(t.pts[pi], t.pts[a], t.pts[b], t.pts[q]) {
			continue
		}
		// Flip edge (a,b) to (pi,q): replace cur and nb.
		curAB := t.tris[cur].adj
		// In nb, find the edges opposite a and b. nb's vertices are a
		// rotation of (q, b, a); the edge opposite a joins (q,b) and
		// the edge opposite b joins (q,a).
		var nbA, nbB int32 = -1, -1
		for e := 0; e < 3; e++ {
			switch t.tris[nb].verts[e] {
			case a:
				nbA = t.tris[nb].adj[e]
			case b:
				nbB = t.tris[nb].adj[e]
			}
		}
		curA := curAB[(pe+1)%3] // cur edge opposite a joins pi,b
		curB := curAB[(pe+2)%3] // cur edge opposite b joins pi,a
		t.tris[cur] = tri{verts: [3]int32{pi, a, q}, adj: [3]int32{nbB, nb, curB}}
		t.tris[nb] = tri{verts: [3]int32{pi, q, b}, adj: [3]int32{nbA, curA, cur}}
		// Fix back-pointers of the two outer neighbours that changed
		// owner; nbA keeps pointing at nb and curB at cur.
		if nbB >= 0 {
			t.tris[nbB].adj[t.edgeIndexOf(nbB, nb)] = cur
		}
		if curA >= 0 {
			t.tris[curA].adj[t.edgeIndexOf(curA, cur)] = nb
		}
		t.last = cur
		stack = append(stack, cur, nb)
	}
	t.stack = stack
}

// eachEdge calls fn once for every triangulation edge between real
// points, from the lower-indexed of the two live triangles holding it.
func (t *triangulator) eachEdge(fn func(a, b int32)) {
	for i := range t.tris {
		tr := &t.tris[i]
		if tr.dead {
			continue
		}
		for e := 0; e < 3; e++ {
			if nb := tr.adj[e]; nb >= 0 && nb < int32(i) {
				continue // reported by nb
			}
			a := tr.verts[(e+1)%3]
			b := tr.verts[(e+2)%3]
			if int(a) >= t.n || int(b) >= t.n {
				continue // super-triangle edge
			}
			fn(a, b)
		}
	}
}

// mortonOrder returns point indices sorted along a Z-order curve, which
// gives the insertion locality the walking point-location relies on.
func mortonOrder(pts []geometry.Vec2) []int32 {
	if len(pts) == 0 {
		return nil
	}
	r := geometry.BoundingRect(pts)
	w := math.Max(r.Width(), 1e-12)
	h := math.Max(r.Height(), 1e-12)
	// Each entry holds a point's 32-bit key above its index. Comparing
	// keys alone runs the same pdqsort, comparison for comparison, as
	// sort.Slice over an index slice, so tied keys keep the order that
	// sort gives them (the order every recorded mesh was built in).
	keyed := make([]uint64, len(pts))
	for i, p := range pts {
		x := uint32((p.X - r.X0) / w * 65535)
		y := uint32((p.Y - r.Y0) / h * 65535)
		keyed[i] = interleave16(x, y)<<32 | uint64(i)
	}
	slices.SortFunc(keyed, func(a, b uint64) int { return cmp.Compare(a>>32, b>>32) })
	order := make([]int32, len(pts))
	for i, k := range keyed {
		order[i] = int32(uint32(k))
	}
	return order
}

func interleave16(x, y uint32) uint64 {
	spread := func(v uint32) uint64 {
		z := uint64(v) & 0xFFFF
		z = (z | z<<8) & 0x00FF00FF
		z = (z | z<<4) & 0x0F0F0F0F
		z = (z | z<<2) & 0x33333333
		z = (z | z<<1) & 0x55555555
		return z
	}
	return spread(x) | spread(y)<<1
}
