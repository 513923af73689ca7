package quadtree

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/geometry"
)

func randomPoints(n int, seed int64) []geometry.Vec2 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geometry.Vec2, n)
	for i := range pts {
		pts[i] = geometry.Vec2{X: rng.Float64(), Y: rng.Float64()}
	}
	return pts
}

// forEachFlat walks the flat layout the way Repulsion does, but with the
// unfiltered opening test and a visit callback in place of the fused
// force term, so the layout can be checked cluster by cluster.
func (t *Tree) forEachFlat(p geometry.Vec2, exclude int32, theta float64, visit func(com geometry.Vec2, mass float64, point int32)) {
	for i := 0; i < len(t.flat); {
		n := &t.flat[i]
		com := geometry.Vec2{X: n.x, Y: n.y}
		d := p.Dist(com)
		switch {
		case n.pt >= 0:
			if n.pt != exclude {
				visit(com, n.m, n.pt)
			}
			i++
		case d > 0 && n.w/d < theta:
			visit(com, n.m, -1)
			i = int(n.skip)
		default:
			if n.pt < -1 {
				c := t.caps[-2-n.pt]
				visit(c.sum.Scale(1/c.mass), c.mass, -1)
			}
			i++
		}
	}
}

func TestMassConservation(t *testing.T) {
	pts := randomPoints(500, 1)
	mass := make([]float64, len(pts))
	total := 0.0
	rng := rand.New(rand.NewSource(2))
	for i := range mass {
		mass[i] = rng.Float64() + 0.5
		total += mass[i]
	}
	tr := Build(pts, mass)
	if math.Abs(tr.TotalMass()-total) > 1e-9 {
		t.Fatalf("total mass %v want %v", tr.TotalMass(), total)
	}
	if tr.Len() != len(pts) {
		t.Fatalf("len %d want %d", tr.Len(), len(pts))
	}
}

// TestVisitedMassComplete: for any query, the sum of visited masses
// must equal total minus the excluded point, regardless of theta.
func TestVisitedMassComplete(t *testing.T) {
	pts := randomPoints(400, 3)
	tr := Build(pts, nil)
	for _, theta := range []float64{0.3, 0.85, 1.5} {
		for q := 0; q < 50; q++ {
			sum := 0.0
			tr.forEachFlat(pts[q], int32(q), theta, func(_ geometry.Vec2, m float64, _ int32) {
				sum += m
			})
			// With theta >= 1 a cell containing the query point may be
			// accepted whole, re-including the query's own mass (the
			// documented approximation); below 1 the count is exact.
			want := float64(len(pts) - 1)
			slack := 1e-9
			if theta >= 1 {
				slack = 1 + 1e-9
			}
			if sum < want-1e-9 || sum > want+slack {
				t.Fatalf("theta %v query %d: visited mass %v want %v", theta, q, sum, want)
			}
		}
	}
}

// TestForceApproximation: the 1/d-kernel repulsion from the tree must be
// close to the exact sum for moderate theta.
func TestForceApproximation(t *testing.T) {
	pts := randomPoints(800, 7)
	tr := Build(pts, nil)
	kernel := func(at, from geometry.Vec2, m float64) geometry.Vec2 {
		d := at.Sub(from)
		dist2 := d.Dot(d)
		if dist2 < 1e-12 {
			dist2 = 1e-12
		}
		return d.Scale(m / dist2)
	}
	for q := 0; q < 30; q++ {
		var exact geometry.Vec2
		for j := range pts {
			if j == q {
				continue
			}
			exact = exact.Add(kernel(pts[q], pts[j], 1))
		}
		approx := tr.Repulsion(pts[q], int32(q), 0.6, 1, 1, geometry.Vec2{})
		relErr := exact.Sub(approx).Norm() / (exact.Norm() + 1e-12)
		if relErr > 0.12 {
			t.Fatalf("query %d: relative error %.3f", q, relErr)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := make([]geometry.Vec2, 64)
	for i := range pts {
		pts[i] = geometry.Vec2{X: 0.5, Y: 0.5} // all identical
	}
	tr := Build(pts, nil)
	if tr.Len() != 64 || math.Abs(tr.TotalMass()-64) > 1e-9 {
		t.Fatalf("len=%d mass=%v", tr.Len(), tr.TotalMass())
	}
	sum := 0.0
	tr.forEachFlat(geometry.Vec2{X: 0.1, Y: 0.1}, -1, 0.85, func(_ geometry.Vec2, m float64, _ int32) {
		sum += m
	})
	if math.Abs(sum-64) > 1e-9 {
		t.Fatalf("visited mass %v want 64", sum)
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if tr := Build(nil, nil); tr.Len() != 0 || tr.TotalMass() != 0 {
		t.Fatal("empty tree not empty")
	}
	tr := Build([]geometry.Vec2{{X: 1, Y: 2}}, nil)
	if tr.Len() != 1 {
		t.Fatal("single tree wrong")
	}
	count := 0
	tr.forEachFlat(geometry.Vec2{}, 0, 0.85, func(_ geometry.Vec2, _ float64, _ int32) { count++ })
	if count != 0 {
		t.Fatal("excluded point visited")
	}
	acc := geometry.Vec2{X: 3, Y: -4}
	if got := tr.Repulsion(geometry.Vec2{}, 0, 0.85, 0.2, 1, acc); got != acc {
		t.Fatalf("excluded point contributed: %v", got)
	}
	tr.Rebuild(nil, nil)
	if tr.Len() != 0 || tr.TotalMass() != 0 || len(tr.flat) != 0 {
		t.Fatal("rebuild over no points left a non-empty tree")
	}
}

// TestFarFilterMatchesHypot holds the filtered opening test to the exact
// expression on offsets crafted a few ulps either side of w/d = θ, where
// the exact fallback must decide, and on magnitudes outside the range
// the filter handles.
func TestFarFilterMatchesHypot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	thetas := []float64{0.5, 0.9, 1.2, 0, -0.9, math.NaN(), math.Inf(1), 1e-200, 1e200}
	scales := []float64{1, 1e-3, 1e3, 1e-160, 1e-170, 1e160, 1e170, 0}
	for k := 0; k < 20000; k++ {
		theta := thetas[k%len(thetas)]
		s := scales[(k/len(thetas))%len(scales)]
		dx, dy := (rng.Float64()-0.5)*s, (rng.Float64()-0.5)*s
		w := theta * math.Hypot(dx, dy)
		switch k % 3 {
		case 0: // a few ulps around the boundary
			w = math.Float64frombits(math.Float64bits(w) + uint64(rng.Intn(9)) - 4)
		case 1: // anywhere
			w = rng.Float64() * 3 * s
		}
		want := farExact(dx, dy, w, theta)
		got, sure := farFilter(dx*dx+dy*dy, w, filterTheta2(theta))
		if sure && got != want {
			t.Fatalf("dx=%g dy=%g w=%g theta=%g: filter says far=%v, exact test %v", dx, dy, w, theta, got, want)
		}
	}
}

// TestRebuildRepulsionSteadyStateAllocs: once a tree's storage has grown
// to a point set, rebuilding over it and sweeping the force kernel over
// every point allocates nothing.
func TestRebuildRepulsionSteadyStateAllocs(t *testing.T) {
	pts, mass := cloud(1, 2000, 80, 1, 1)
	var tr Tree
	tr.Rebuild(pts, mass)
	var acc geometry.Vec2
	allocs := testing.AllocsPerRun(5, func() {
		tr.Rebuild(pts, mass)
		for i, p := range pts {
			acc = tr.Repulsion(p, int32(i), 0.9, 0.2, mass[i], acc)
		}
	})
	if allocs != 0 {
		t.Fatalf("Rebuild + Repulsion sweep: %v allocations per run, want 0", allocs)
	}
	if len(tr.caps) == 0 {
		t.Fatal("duplicate points did not reach the depth cap")
	}
}

var benchSink geometry.Vec2

// BenchmarkRepulsion measures the force kernel alone, one repulsion
// sweep over every point of a unit-mass cloud at θ = 0.9, as the
// lattice embedding's near field runs it, at a few hundred points per
// rank's worth (1024) and at Figure 9's density (32768): Repulsion point
// by point in index order and in tree order, and RepulsionGroup four
// points at a time in tree order.
func BenchmarkRepulsion(b *testing.B) {
	for _, n := range []int{1024, 32768} {
		pts := randomPoints(n, 1)
		var tr Tree
		tr.Rebuild(pts, nil)
		b.Run(strconv.Itoa(n)+"/scalar-index", func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				var acc geometry.Vec2
				for i, p := range pts {
					acc = tr.Repulsion(p, int32(i), 0.9, 0.2, 1, acc)
				}
				benchSink = acc
			}
		})
		b.Run(strconv.Itoa(n)+"/scalar-tree", func(b *testing.B) {
			for k := 0; k < b.N; k++ {
				var acc geometry.Vec2
				for _, v := range tr.Order() {
					acc = tr.Repulsion(pts[v], v, 0.9, 0.2, 1, acc)
				}
				benchSink = acc
			}
		})
		b.Run(strconv.Itoa(n)+"/group-tree", func(b *testing.B) {
			b.ReportAllocs()
			var g Group
			for k := 0; k < b.N; k++ {
				order := tr.Order()
				for j := 0; j < len(order); j += 4 {
					g.Reset()
					for _, v := range order[j:min(j+4, len(order))] {
						g.Add(pts[v], v, 1, geometry.Vec2{})
					}
					tr.RepulsionGroup(&g, 0.9, 0.2)
				}
				benchSink = g.Acc(0)
			}
		})
	}
}

// BenchmarkRebuild measures the tree build alone at the sizes one rank
// of the lattice embedding rebuilds every iteration: a few hundred
// points at high P, a few thousand on the coarse, few-rank levels.
func BenchmarkRebuild(b *testing.B) {
	for _, n := range []int{470, 1024, 4096} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			pts := randomPoints(n, 1)
			var tr Tree
			tr.Rebuild(pts, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				tr.Rebuild(pts, nil)
			}
		})
	}
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

// TotalMass returns the total mass in the tree: the root cell's mass,
// or 0 when the tree has no force-visible cell.
func (t *Tree) TotalMass() float64 {
	if len(t.flat) == 0 {
		return 0
	}
	return t.flat[0].m
}
