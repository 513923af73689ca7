package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/geometry"
	"repro/internal/graph"
)

// The mesh path as it was before generated meshes were built in one
// pass, kept verbatim (bar renames) as the differential oracle for
// DelaunayRandom, Trace and Bubbles: triangulate in original labels
// with a second Morton sort, dedup edges through a map, build the CSR,
// keep the largest component, then Morton-relabel through a second
// Builder round trip.

func delaunayRandomOracle(n int, seed int64) *Generated {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geometry.Vec2, n)
	for i := range pts {
		pts[i] = geometry.Vec2{X: rng.Float64(), Y: rng.Float64()}
	}
	b := graph.NewBuilder(n)
	for _, e := range delaunayOracle(pts) {
		b.AddEdge(e[0], e[1])
	}
	g, coords := LargestComponent(b.Build(), pts)
	g, coords = mortonRelabelOracle(g, coords)
	return &Generated{Name: "delaunay", G: g, Coords: coords}
}

func buildMeshOracle(name string, pts []geometry.Vec2, maxEdge float64, reject func(a, b geometry.Vec2) bool) *Generated {
	b := graph.NewBuilder(len(pts))
	for _, e := range delaunayOracle(pts) {
		a, c := pts[e[0]], pts[e[1]]
		if a.Dist(c) > maxEdge {
			continue
		}
		if reject != nil && reject(a, c) {
			continue
		}
		b.AddEdge(e[0], e[1])
	}
	g, coords := LargestComponent(b.Build(), pts)
	g, coords = mortonRelabelOracle(g, coords)
	return &Generated{Name: name, G: g, Coords: coords}
}

func mortonRelabelOracle(g *graph.Graph, coords []geometry.Vec2) (*graph.Graph, []geometry.Vec2) {
	order := mortonOrderOracle(coords) // order[i] = old id at new position i
	newID := make([]int32, g.NumVertices())
	for pos, old := range order {
		newID[old] = int32(pos)
	}
	b := graph.NewBuilder(g.NumVertices())
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for k := g.XAdj[u]; k < g.XAdj[u+1]; k++ {
			v := g.Adjncy[k]
			if u < v {
				b.AddWeightedEdge(newID[u], newID[v], g.ArcWeight(k))
			}
		}
	}
	out := b.Build()
	if g.EWgt == nil {
		out.EWgt = nil
	}
	newCoords := make([]geometry.Vec2, len(coords))
	for pos, old := range order {
		newCoords[pos] = coords[old]
	}
	return out, newCoords
}

func delaunayOracle(pts []geometry.Vec2) [][2]int32 {
	d := newOracleTriangulator(pts)
	order := mortonOrderOracle(pts)
	for _, i := range order {
		d.insert(i)
	}
	return d.edges()
}

type oracleTriangulator struct {
	pts  []geometry.Vec2 // original points plus 3 super-triangle vertices
	n    int             // number of real points
	tris []tri
	last int32 // a live triangle near the last insertion, walk start
}

func newOracleTriangulator(pts []geometry.Vec2) *oracleTriangulator {
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
	t := &oracleTriangulator{pts: all, n: n}
	t.tris = append(t.tris, tri{
		verts: [3]int32{int32(n), int32(n + 1), int32(n + 2)},
		adj:   [3]int32{-1, -1, -1},
	})
	t.last = 0
	return t
}

func (t *oracleTriangulator) locate(pi int32) int32 {
	p := t.pts[pi]
	cur := t.last
	if t.tris[cur].dead {
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

func (t *oracleTriangulator) edgeIndexOf(ti, other int32) int {
	for e := 0; e < 3; e++ {
		if t.tris[ti].adj[e] == other {
			return e
		}
	}
	panic("gen: Delaunay adjacency corrupted")
}

func (t *oracleTriangulator) insert(pi int32) {
	ti := t.locate(pi)
	old := t.tris[ti]
	t.tris[ti].dead = true
	base := int32(len(t.tris))
	ids := [3]int32{base, base + 1, base + 2}
	for e := 0; e < 3; e++ {
		a := old.verts[(e+1)%3]
		b := old.verts[(e+2)%3]
		nt := tri{
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
	var stack []int32
	stack = append(stack, ids[0], ids[1], ids[2])
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t.tris[cur].dead {
			continue
		}
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
		ne := t.edgeIndexOf(nb, cur)
		q := t.tris[nb].verts[ne]
		a := t.tris[cur].verts[(pe+1)%3]
		b := t.tris[cur].verts[(pe+2)%3]
		if !inCircle(t.pts[pi], t.pts[a], t.pts[b], t.pts[q]) {
			continue
		}
		curAB := t.tris[cur].adj
		var nbA, nbB int32 = -1, -1
		for e := 0; e < 3; e++ {
			switch t.tris[nb].verts[e] {
			case a:
				nbA = t.tris[nb].adj[e]
			case b:
				nbB = t.tris[nb].adj[e]
			}
		}
		curA := curAB[(pe+1)%3]
		curB := curAB[(pe+2)%3]
		t.tris[cur] = tri{verts: [3]int32{pi, a, q}, adj: [3]int32{nbB, nb, curB}}
		t.tris[nb] = tri{verts: [3]int32{pi, q, b}, adj: [3]int32{nbA, curA, cur}}
		if nbB >= 0 {
			t.tris[nbB].adj[t.edgeIndexOf(nbB, nb)] = cur
		}
		if curA >= 0 {
			t.tris[curA].adj[t.edgeIndexOf(curA, cur)] = nb
		}
		t.last = cur
		stack = append(stack, cur, nb)
	}
}

func (t *oracleTriangulator) edges() [][2]int32 {
	seen := make(map[int64]struct{})
	var out [][2]int32
	for i := range t.tris {
		tr := &t.tris[i]
		if tr.dead {
			continue
		}
		for e := 0; e < 3; e++ {
			a := tr.verts[(e+1)%3]
			b := tr.verts[(e+2)%3]
			if int(a) >= t.n || int(b) >= t.n {
				continue // super-triangle edge
			}
			if a > b {
				a, b = b, a
			}
			key := int64(a)<<32 | int64(b)
			if _, ok := seen[key]; ok {
				continue
			}
			seen[key] = struct{}{}
			out = append(out, [2]int32{a, b})
		}
	}
	return out
}

func mortonOrderOracle(pts []geometry.Vec2) []int32 {
	if len(pts) == 0 {
		return nil
	}
	r := geometry.BoundingRect(pts)
	w := math.Max(r.Width(), 1e-12)
	h := math.Max(r.Height(), 1e-12)
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		x := uint32((p.X - r.X0) / w * 65535)
		y := uint32((p.Y - r.Y0) / h * 65535)
		keys[i] = interleave16(x, y)
	}
	order := make([]int32, len(pts))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool { return keys[order[i]] < keys[order[j]] })
	return order
}
