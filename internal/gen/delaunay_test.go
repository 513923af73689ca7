package gen

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geometry"
	"repro/internal/graph"
)

func randomPoints(n int, seed int64) []geometry.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geometry.Vec2, n)
	for i := range pts {
		pts[i] = geometry.Vec2{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

// inMortonOrder returns pts permuted into the insertion order the mesh
// generators use.
func inMortonOrder(pts []geometry.Vec2) []geometry.Vec2 {
	out := make([]geometry.Vec2, len(pts))
	for i, o := range mortonOrder(pts) {
		out[i] = pts[o]
	}
	return out
}

// TestDelaunayEmptyCircumcircle checks the defining property on every
// triangle of a moderate instance: no other point lies strictly inside
// a triangle's circumcircle.
func TestDelaunayEmptyCircumcircle(t *testing.T) {
	pts := inMortonOrder(randomPoints(300, 7))
	d := triangulate(pts)
	for ti := range d.tris {
		tr := &d.tris[ti]
		if tr.dead {
			continue
		}
		skip := false
		for _, v := range tr.verts {
			if int(v) >= d.n {
				skip = true // super-triangle fringe
			}
		}
		if skip {
			continue
		}
		a, b, c := pts[tr.verts[0]], pts[tr.verts[1]], pts[tr.verts[2]]
		if orient2d(a, b, c) <= 0 {
			t.Fatalf("triangle %d not CCW", ti)
		}
		for j, p := range pts {
			if int32(j) == tr.verts[0] || int32(j) == tr.verts[1] || int32(j) == tr.verts[2] {
				continue
			}
			if inCircleStrict(a, b, c, p) {
				t.Fatalf("point %d inside circumcircle of triangle %d", j, ti)
			}
		}
	}
}

// inCircleStrict uses a tolerance well above the legalisation epsilon
// so the check is immune to boundary rounding.
func inCircleStrict(a, b, c, d geometry.Vec2) bool {
	ax, ay := a.X-d.X, a.Y-d.Y
	bx, by := b.X-d.X, b.Y-d.Y
	cx, cy := c.X-d.X, c.Y-d.Y
	det := (ax*ax+ay*ay)*(bx*cy-cx*by) -
		(bx*bx+by*by)*(ax*cy-cx*ay) +
		(cx*cx+cy*cy)*(ax*by-bx*ay)
	return det > 1e-9
}

// TestDelaunayStructure checks global structural facts on larger
// instances: planar edge bound, connectivity, and Euler-consistent
// size.
func TestDelaunayStructure(t *testing.T) {
	for _, n := range []int{10, 100, 2000, 20000} {
		var edges [][2]int32
		triangulate(inMortonOrder(randomPoints(n, int64(n)))).eachEdge(func(a, b int32) {
			edges = append(edges, [2]int32{a, b})
		})
		if len(edges) > 3*n-6 {
			t.Fatalf("n=%d: %d edges exceeds planar bound %d", n, len(edges), 3*n-6)
		}
		// A triangulation of a point set in general position has at
		// least 2n-3 edges (n>=3).
		if n >= 3 && len(edges) < 2*n-3 {
			t.Fatalf("n=%d: only %d edges, want >= %d", n, len(edges), 2*n-3)
		}
		b := graph.NewBuilder(n)
		for _, e := range edges {
			b.AddEdge(e[0], e[1])
		}
		g := b.Build()
		if _, comps := graph.Components(g); comps != 1 {
			t.Fatalf("n=%d: triangulation has %d components", n, comps)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

// TestDelaunayAdjacencyInvariant exercises the internal adjacency
// structure: every live triangle's neighbour must point back at it.
func TestDelaunayAdjacencyInvariant(t *testing.T) {
	pts := inMortonOrder(randomPoints(1500, 99))
	d := newTriangulator(pts)
	for k := range pts {
		d.insert(int32(k))
		if k%250 != 0 && k != len(pts)-1 {
			continue
		}
		for ti := range d.tris {
			tr := &d.tris[ti]
			if tr.dead {
				continue
			}
			for e := 0; e < 3; e++ {
				nb := tr.adj[e]
				if nb < 0 {
					continue
				}
				if d.tris[nb].dead {
					t.Fatalf("after %d inserts: triangle %d adjacent to dead %d", k+1, ti, nb)
				}
				found := false
				for f := 0; f < 3; f++ {
					if d.tris[nb].adj[f] == int32(ti) {
						found = true
					}
				}
				if !found {
					t.Fatalf("after %d inserts: adjacency %d->%d not reciprocated", k+1, ti, nb)
				}
			}
		}
	}
}

func TestMortonOrderIsPermutation(t *testing.T) {
	pts := randomPoints(777, 3)
	order := mortonOrder(pts)
	seen := make([]bool, len(pts))
	for _, i := range order {
		if seen[i] {
			t.Fatalf("index %d repeated", i)
		}
		seen[i] = true
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d missing", i)
		}
	}
}

// oracleSuiteBuild builds suite graph e at scale s the way it was built
// before meshes were built in one pass: mesh entries through the
// oracle, every other entry through its own (unchanged) generator.
func oracleSuiteBuild(e SuiteEntry, s float64) *Generated {
	var g *Generated
	switch e.Name {
	case "delaunay_n20":
		g = delaunayRandomOracle(scaled(16384, s, 256), 2020)
	case "delaunay_n23":
		g = delaunayRandomOracle(scaled(131072, s, 512), 2323)
	case "delaunay_n24":
		g = delaunayRandomOracle(scaled(262144, s, 1024), 2424)
	case "hugetrace-00000":
		g = meshOracle(traceInput(scaled(72000, s, 400), 55))
	case "hugebubbles-00020":
		g = meshOracle(bubblesInput(scaled(280000, s, 1200), 20, 66))
	default:
		return e.Build(s)
	}
	g.Name = e.Name
	return g
}

// meshOracle runs the oracle mesh path on in, whose maxEdge of 0
// means no cap.
func meshOracle(in meshInput) *Generated {
	maxEdge := in.maxEdge
	if maxEdge == 0 {
		maxEdge = math.Inf(1)
	}
	return buildMeshOracle(in.name, in.pts, maxEdge, in.reject)
}

// assertGeneratedEqual fails unless got matches want bit for bit:
// name, CSR, weights and coordinates, nil-ness included.
func assertGeneratedEqual(t *testing.T, name string, want, got *Generated) {
	t.Helper()
	if want.Name != got.Name {
		t.Fatalf("%s: name %q, want %q", name, got.Name, want.Name)
	}
	assertGraphsEqual(t, name, want.G, got.G)
	if !slices.Equal(want.G.EWgt, got.G.EWgt) {
		t.Fatalf("%s: EWgt differs", name)
	}
	if (want.G.VWgt == nil) != (got.G.VWgt == nil) || !slices.Equal(want.G.VWgt, got.G.VWgt) {
		t.Fatalf("%s: VWgt differs", name)
	}
	if (want.Coords == nil) != (got.Coords == nil) || len(want.Coords) != len(got.Coords) {
		t.Fatalf("%s: %d coords (nil %v), want %d (nil %v)", name,
			len(got.Coords), got.Coords == nil, len(want.Coords), want.Coords == nil)
	}
	for i, w := range want.Coords {
		g := got.Coords[i]
		if math.Float64bits(w.X) != math.Float64bits(g.X) || math.Float64bits(w.Y) != math.Float64bits(g.Y) {
			t.Fatalf("%s: Coords[%d]=%v want %v", name, i, g, w)
		}
	}
}

// TestMeshGeneratorsMatchOracle: the one-pass mesh build reproduces the
// oracle's graphs and coordinates bit for bit, on every suite graph,
// on DelaunayRandom down to degenerate sizes, and on filtered meshes
// that fall apart into several components.
func TestMeshGeneratorsMatchOracle(t *testing.T) {
	scales := []float64{0.05, 0.25, 1}
	if testing.Short() {
		scales = scales[:2]
	}
	for _, s := range scales {
		for _, e := range SuiteEntries() {
			assertGeneratedEqual(t, fmt.Sprintf("%s@%v", e.Name, s), oracleSuiteBuild(e, s), e.Build(s))
		}
	}
	sizes := []int{0, 1, 2, 3, 257, 16384, 262144}
	if testing.Short() {
		sizes = sizes[:len(sizes)-1]
	}
	for _, n := range sizes {
		for _, seed := range []int64{1, 7} {
			assertGeneratedEqual(t, fmt.Sprintf("DelaunayRandom(%d, %d)", n, seed),
				delaunayRandomOracle(n, seed), DelaunayRandom(n, seed))
		}
	}
	// Edges longer than the mean spacing isolate many vertices, and the
	// reject filter cuts the square in two along x = 0.5.
	pts := randomPoints(3000, 5)
	halves := func(a, b geometry.Vec2) bool { return (a.X < 0.5) != (b.X < 0.5) }
	for _, in := range []meshInput{
		{name: "short-edges", pts: pts, maxEdge: 0.02},
		{name: "halves", pts: pts, reject: halves},
	} {
		want := meshOracle(in)
		if want.G.NumVertices() == len(pts) {
			t.Fatalf("%s: mesh stayed connected; the case does not reach the fallback", in.name)
		}
		assertGeneratedEqual(t, in.name, want, buildMesh(in))
	}
}

// TestMortonOrderMatchesOracle: points built to collide on Morton keys
// (coincident lattice points, and a cluster far below one key cell
// inside a wide bounding box) keep the tie order of the sort.Slice
// oracle.
func TestMortonOrderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{0, 1, 2, 5, 12, 13, 50, 1000, 20000} {
		for _, side := range []int{1, 3, 16} {
			lattice := make([]geometry.Vec2, n)
			for i := range lattice {
				lattice[i] = geometry.Vec2{X: float64(rng.Intn(side)), Y: float64(rng.Intn(side))}
			}
			if got, want := mortonOrder(lattice), mortonOrderOracle(lattice); !slices.Equal(got, want) {
				t.Fatalf("lattice n=%d side=%d: order differs from oracle", n, side)
			}
		}
		cluster := []geometry.Vec2{{X: 0, Y: 0}, {X: 1, Y: 1}}
		for i := 0; i < n; i++ {
			cluster = append(cluster, geometry.Vec2{X: 0.5 + 1e-7*rng.Float64(), Y: 0.5 + 1e-7*rng.Float64()})
		}
		if got, want := mortonOrder(cluster), mortonOrderOracle(cluster); !slices.Equal(got, want) {
			t.Fatalf("cluster n=%d: order differs from oracle", n)
		}
	}
}

// TestDelaunayRandomAllocs pins the mesh build's allocation count: it
// must not grow with the point count (the map edge dedup and a
// legalisation stack per insert once cost about one per point).
func TestDelaunayRandomAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(2, func() { DelaunayRandom(65536, 1) })
	if allocs >= 1000 {
		t.Fatalf("DelaunayRandom(65536) made %.0f allocations, want < 1000", allocs)
	}
}

var meshSink *Generated

func BenchmarkDelaunayRandom(b *testing.B) {
	for _, n := range []int{16384, 262144} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				meshSink = DelaunayRandom(n, 1)
			}
		})
	}
}

// BenchmarkMeshSuite builds the suite's two filtered-domain meshes at
// scale 1.
func BenchmarkMeshSuite(b *testing.B) {
	for _, e := range SuiteEntries() {
		if e.Name != "hugetrace-00000" && e.Name != "hugebubbles-00020" {
			continue
		}
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				meshSink = e.Build(1)
			}
		})
	}
}
