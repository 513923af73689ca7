package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecOps(t *testing.T) {
	a := Vec2{3, 4}
	if a.Norm() != 5 {
		t.Fatalf("norm = %v", a.Norm())
	}
	if d := a.Sub(Vec2{0, 0}).Dot(Vec2{1, 0}); d != 3 {
		t.Fatalf("dot = %v", d)
	}
}

func TestRect(t *testing.T) {
	r := Rect{0, 0, 4, 2}
	if r.Width() != 4 || r.Height() != 2 {
		t.Fatal("extent wrong")
	}
	if !r.Contains(Vec2{1, 1}) || r.Contains(Vec2{5, 1}) {
		t.Fatal("containment wrong")
	}
	if p := r.Clamp(Vec2{9, -3}); p != (Vec2{4, 0}) {
		t.Fatalf("clamp = %v", p)
	}
	if b := BoundingRect([]Vec2{{1, 2}, {-1, 5}}); b != (Rect{-1, 2, 1, 5}) {
		t.Fatalf("bounding = %v", b)
	}
}

// TestNullVectorProperty: NullVector output must actually satisfy
// a·x ≈ 0 and be non-trivial, for random underdetermined systems.
func TestNullVectorProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		rows, cols := 3+rng.Intn(3), 5+rng.Intn(3)
		if rows >= cols {
			continue
		}
		a := make([][]float64, rows)
		for i := range a {
			a[i] = make([]float64, cols)
			for j := range a[i] {
				a[i][j] = rng.NormFloat64()
			}
		}
		x, ok := NullVector(a, cols)
		if !ok {
			t.Fatalf("trial %d: no null vector", trial)
		}
		norm := 0.0
		for _, v := range x {
			norm += v * v
		}
		if norm < 1e-12 {
			t.Fatalf("trial %d: trivial solution", trial)
		}
		for i := range a {
			s := 0.0
			for j := range x {
				s += a[i][j] * x[j]
			}
			if math.Abs(s) > 1e-6 {
				t.Fatalf("trial %d: residual %v", trial, s)
			}
		}
	}
}

// TestStereoRoundTrip: StereoDown(StereoUp(p)) == p and the lift lands
// on the unit sphere.
func TestStereoRoundTrip(t *testing.T) {
	f := func(x, y float64) bool {
		if math.Abs(x) > 1e6 || math.Abs(y) > 1e6 {
			return true
		}
		p := Vec2{x, y}
		q := StereoUp(p)
		if math.Abs(q.Norm()-1) > 1e-9 {
			return false
		}
		back := StereoDown(q)
		return back.Dist(p) < 1e-6*(1+p.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestMoebiusProperties: the map fixes the sphere setwise and sends a
// to the origin.
func TestMoebiusProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		a := RandomUnitVec3(rng).Scale(rng.Float64() * 0.95)
		mob := MoebiusToOrigin(a)
		if img := mob(a); img.Norm() > 1e-9 {
			t.Fatalf("trial %d: a maps to %v, want origin", trial, img)
		}
		for k := 0; k < 20; k++ {
			q := RandomUnitVec3(rng)
			if r := mob(q).Norm(); math.Abs(r-1) > 1e-9 {
				t.Fatalf("trial %d: sphere point maps to radius %v", trial, r)
			}
		}
	}
}

// TestRadonPoint: the Radon point of 5 points must lie inside their
// convex hull (it is a convex combination of the positive class, which
// itself lies in the hull).
func TestRadonPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		var pts [5]Vec3
		for i := range pts {
			pts[i] = Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		r, ok := RadonPoint(pts)
		if !ok {
			continue // degenerate draw
		}
		// Hull membership check via LP-free necessary condition: r is
		// within the bounding box and within max distance of centroid.
		c := Centroid3(pts[:])
		maxD := 0.0
		for _, p := range pts {
			if d := p.Dist(c); d > maxD {
				maxD = d
			}
		}
		if r.Dist(c) > maxD+1e-9 {
			t.Fatalf("trial %d: radon point outside hull radius", trial)
		}
	}
}

// TestCenterpointDepth: every halfspace through the estimated
// centerpoint should contain a decent fraction of the points (the
// guarantee is 1/5 for a true centerpoint; the iterated estimate gets
// close — we assert 1/8 with random directions).
func TestCenterpointDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	pts := make([]Vec3, 600)
	for i := range pts {
		pts[i] = RandomUnitVec3(rng)
	}
	c := Centerpoint(pts, rng)
	for trial := 0; trial < 50; trial++ {
		u := RandomUnitVec3(rng)
		above := 0
		for _, p := range pts {
			if p.Sub(c).Dot(u) > 0 {
				above++
			}
		}
		frac := float64(above) / float64(len(pts))
		if frac < 1.0/8 || frac > 7.0/8 {
			t.Fatalf("direction %d: fraction %v outside [1/8, 7/8]", trial, frac)
		}
	}
}

func TestCentroids(t *testing.T) {
	if c := Centroid2([]Vec2{{0, 0}, {2, 4}}); c != (Vec2{1, 2}) {
		t.Fatalf("centroid2 = %v", c)
	}
	if c := Centroid3([]Vec3{{0, 0, 0}, {2, 2, 2}}); c != (Vec3{1, 1, 1}) {
		t.Fatalf("centroid3 = %v", c)
	}
}

func TestRectScaleExpand(t *testing.T) {
	r := Rect{1, 1, 3, 5}
	s := r.Scale(2)
	if s != (Rect{2, 2, 6, 10}) {
		t.Fatalf("scale = %+v", s)
	}
	e := r.Expand(1)
	if e != (Rect{0, 0, 4, 6}) {
		t.Fatalf("expand = %+v", e)
	}
	if c := r.Center(); c != (Vec2{2, 3}) {
		t.Fatalf("center = %v", c)
	}
}

func TestRandomUnitVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		if n := RandomUnitVec3(rng).Norm(); math.Abs(n-1) > 1e-9 {
			t.Fatalf("unit3 norm %v", n)
		}
		if n := RandomUnitVec2(rng).Norm(); math.Abs(n-1) > 1e-9 {
			t.Fatalf("unit2 norm %v", n)
		}
	}
}

func TestStereoSouthPole(t *testing.T) {
	// The origin lifts to the south pole.
	q := StereoUp(Vec2{})
	if q.Dist(Vec3{0, 0, -1}) > 1e-12 {
		t.Fatalf("origin lifts to %v", q)
	}
	// StereoDown near the north pole stays finite.
	p := StereoDown(Vec3{0, 0, 1})
	if math.IsInf(p.X, 0) || math.IsNaN(p.X) {
		t.Fatalf("north pole projects to %v", p)
	}
}

func TestMoebiusDegenerateCenter(t *testing.T) {
	// A center on (or outside) the sphere is shrunk inside; the map
	// must stay finite on sphere points.
	rng := rand.New(rand.NewSource(6))
	mob := MoebiusToOrigin(Vec3{0, 0, 1.5})
	for i := 0; i < 20; i++ {
		q := mob(RandomUnitVec3(rng))
		if math.IsNaN(q.X) || math.IsInf(q.Norm(), 0) {
			t.Fatalf("degenerate map output %v", q)
		}
	}
}

func TestCenterpointSmallInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 6; n++ {
		pts := make([]Vec3, n)
		for i := range pts {
			pts[i] = RandomUnitVec3(rng)
		}
		c := Centerpoint(pts, rng)
		if math.IsNaN(c.X) {
			t.Fatalf("n=%d: NaN centerpoint", n)
		}
	}
}

func TestVec4AndStereo3(t *testing.T) {
	v := Vec4{1, 2, 2, 0}
	if v.Norm() != 3 {
		t.Fatalf("norm = %v", v.Norm())
	}
	p := Vec3{0.3, -0.7, 1.1}
	q := StereoUp3(p)
	if math.Abs(q.Norm()-1) > 1e-12 {
		t.Fatalf("lift off sphere: %v", q.Norm())
	}
	back := StereoDown3(q)
	if back.Dist(p) > 1e-9 {
		t.Fatalf("roundtrip %v -> %v", p, back)
	}
}

func TestMoebius4Properties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		a := RandomUnitVec4(rng).Scale(rng.Float64() * 0.9)
		mob := MoebiusToOrigin4(a)
		if img := mob(a); img.Norm() > 1e-9 {
			t.Fatalf("trial %d: center maps to %v", trial, img)
		}
		for k := 0; k < 10; k++ {
			q := RandomUnitVec4(rng)
			if r := mob(q).Norm(); math.Abs(r-1) > 1e-9 {
				t.Fatalf("trial %d: sphere radius %v", trial, r)
			}
		}
	}
}

func TestCenterpoint4Depth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	pts := make([]Vec4, 600)
	for i := range pts {
		pts[i] = RandomUnitVec4(rng)
	}
	c := Centerpoint4(pts, rng)
	for trial := 0; trial < 30; trial++ {
		u := RandomUnitVec4(rng)
		above := 0
		for _, p := range pts {
			if p.Sub(c).Dot(u) > 0 {
				above++
			}
		}
		frac := float64(above) / float64(len(pts))
		if frac < 1.0/10 || frac > 9.0/10 {
			t.Fatalf("direction %d: fraction %v", trial, frac)
		}
	}
}

func TestRadonPoint4InHull(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 100; trial++ {
		var pts [6]Vec4
		for i := range pts {
			pts[i] = Vec4{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		}
		r, ok := RadonPoint4(pts)
		if !ok {
			continue
		}
		c := centroid4(pts[:])
		maxD := 0.0
		for _, p := range pts {
			if d := p.Dist(c); d > maxD {
				maxD = d
			}
		}
		if r.Dist(c) > maxD+1e-9 {
			t.Fatalf("trial %d: radon point outside hull radius", trial)
		}
	}
}

// TestMoebiusValueMatchesClosure pins the Moebius value type to the
// closure API: NewMoebius(a).Apply and MoebiusToOrigin(a) must produce
// bit-identical images, including the shrink of a centre on or outside
// the unit sphere — the batched partition kernel relies on it.
func TestMoebiusValueMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	centres := []Vec3{
		{}, {X: 0.2, Y: -0.3, Z: 0.4}, {X: 0.9, Y: 0.9, Z: 0.9}, {X: 1.5},
	}
	for i := 0; i < 20; i++ {
		centres = append(centres, Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}.Scale(0.4))
	}
	for _, a := range centres {
		mob := MoebiusToOrigin(a)
		m := NewMoebius(a)
		for i := 0; i < 50; i++ {
			x := RandomUnitVec3(rng)
			if mob(x) != m.Apply(x) {
				t.Fatalf("Moebius value diverges from closure at a=%v x=%v", a, x)
			}
		}
	}
}

// TestMoebiusApplyDots checks the fused kernel against separate apply
// and dot calls.
func TestMoebiusApplyDots(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	m := NewMoebius(Vec3{X: 0.3, Y: -0.1, Z: 0.2})
	us := make([]Vec3, 5)
	for i := range us {
		us[i] = RandomUnitVec3(rng)
	}
	out := make([]float64, len(us))
	for trial := 0; trial < 20; trial++ {
		q := RandomUnitVec3(rng)
		m.ApplyDots(q, us, out)
		p := m.Apply(q)
		for j, u := range us {
			if out[j] != p.Dot(u) {
				t.Fatalf("fused dot %d differs: %v vs %v", j, out[j], p.Dot(u))
			}
		}
	}
}

// MoebiusToOrigin is NewMoebius(a).Apply as a closure, the form the
// Möbius property tests call.
func MoebiusToOrigin(a Vec3) func(Vec3) Vec3 {
	m := NewMoebius(a)
	return m.Apply
}

// StereoDown projects a point on the unit sphere (other than the north
// pole) back to the plane by stereographic projection from the north
// pole. It is the inverse of StereoUp.
func StereoDown(q Vec3) Vec2 {
	d := 1 - q.Z
	if d < 1e-12 {
		d = 1e-12 // point at (numerical) north pole: send it far away
	}
	return Vec2{q.X / d, q.Y / d}
}

// StereoDown3 inverts StereoUp3 for sphere points away from the pole.
func StereoDown3(q Vec4) Vec3 {
	d := 1 - q.W
	if d < 1e-12 {
		d = 1e-12
	}
	return Vec3{q.X / d, q.Y / d, q.Z / d}
}

// NullVector returns a non-trivial solution x of the homogeneous system
// a·x = 0 where a has rows rows and cols columns with rows < cols, using
// Gaussian elimination. The returned vector has unit infinity norm. It
// returns ok=false if elimination degenerates (all candidate solutions
// numerically zero).
func NullVector(a [][]float64, cols int) (x []float64, ok bool) {
	rows := len(a)
	// Row-echelon reduction with partial pivoting and column pivots
	// recorded so we can identify a free column.
	m := make([][]float64, rows)
	for i := range a {
		m[i] = append([]float64(nil), a[i]...)
	}
	pivotCol := make([]int, 0, rows)
	r := 0
	for c := 0; c < cols && r < rows; c++ {
		pivot := -1
		best := 1e-12
		for i := r; i < rows; i++ {
			if v := math.Abs(m[i][c]); v > best {
				best, pivot = v, i
			}
		}
		if pivot < 0 {
			continue // free column
		}
		m[r], m[pivot] = m[pivot], m[r]
		inv := 1 / m[r][c]
		for j := c; j < cols; j++ {
			m[r][j] *= inv
		}
		for i := 0; i < rows; i++ {
			if i == r || m[i][c] == 0 {
				continue
			}
			f := m[i][c]
			for j := c; j < cols; j++ {
				m[i][j] -= f * m[r][j]
			}
		}
		pivotCol = append(pivotCol, c)
		r++
	}
	// Choose the first free (non-pivot) column and back-substitute.
	isPivot := make([]bool, cols)
	for _, c := range pivotCol {
		isPivot[c] = true
	}
	free := -1
	for c := 0; c < cols; c++ {
		if !isPivot[c] {
			free = c
			break
		}
	}
	if free < 0 {
		return nil, false
	}
	x = make([]float64, cols)
	x[free] = 1
	for i, c := range pivotCol {
		// Row i reads x[c] + Σ_{j>pivots} m[i][j]·x[j] = 0.
		x[c] = -m[i][free]
	}
	// Normalize to unit infinity norm for stability.
	mx := 0.0
	for _, v := range x {
		if av := math.Abs(v); av > mx {
			mx = av
		}
	}
	if mx < 1e-300 {
		return nil, false
	}
	for i := range x {
		x[i] /= mx
	}
	return x, true
}
