package geometry

import (
	"math"
	"math/rand"
	"sync"
)

// This file carries the geometric mesh partitioner's machinery one
// dimension up: 3-D meshes lift to the unit 3-sphere in R⁴, where
// centerpoints come from Radon partitions of six points and the same
// Möbius construction centres the cloud. (Gilbert–Miller–Teng is
// dimension-generic; the paper evaluates 2-D graphs but the method, and
// this library, handle d = 3 the same way.)

// Vec4 is a point or vector in 4-space.
type Vec4 struct {
	X, Y, Z, W float64
}

// Add returns v + w.
func (v Vec4) Add(w Vec4) Vec4 { return Vec4{v.X + w.X, v.Y + w.Y, v.Z + w.Z, v.W + w.W} }

// Sub returns v - w.
func (v Vec4) Sub(w Vec4) Vec4 { return Vec4{v.X - w.X, v.Y - w.Y, v.Z - w.Z, v.W - w.W} }

// Scale returns s·v.
func (v Vec4) Scale(s float64) Vec4 { return Vec4{v.X * s, v.Y * s, v.Z * s, v.W * s} }

// Dot returns the inner product of v and w.
func (v Vec4) Dot(w Vec4) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z + v.W*w.W }

// Norm returns the Euclidean length of v.
func (v Vec4) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec4) Dist(w Vec4) float64 { return v.Sub(w).Norm() }

// StereoUp3 lifts a 3-D point onto the unit 3-sphere in R⁴ by inverse
// stereographic projection from the pole (0,0,0,1).
func StereoUp3(p Vec3) Vec4 {
	d := p.Dot(p) + 1
	return Vec4{2 * p.X / d, 2 * p.Y / d, 2 * p.Z / d, (d - 2) / d}
}

// MoebiusToOrigin4 returns the ball automorphism of the unit ball in R⁴
// sending the interior point a to the origin; the same formula as the
// 3-D Moebius, one dimension up.
func MoebiusToOrigin4(a Vec4) func(Vec4) Vec4 {
	if n := a.Norm(); n >= 0.999 {
		a = a.Scale(0.999 / n)
	}
	aa := a.Dot(a)
	return func(x Vec4) Vec4 {
		xa := x.Sub(a)
		den := 1 - 2*x.Dot(a) + x.Dot(x)*aa
		if den < 1e-12 {
			den = 1e-12
		}
		num := xa.Scale(1 - aa).Sub(a.Scale(xa.Dot(xa)))
		return num.Scale(1 / den)
	}
}

// RadonPoint4 computes a Radon point of six points in R⁴ (d+2 = 6).
// The fallback mirrors RadonPoint's: centroid on degeneracy. Like
// RadonPoint, the elimination runs allocation-free on stack arrays.
func RadonPoint4(pts [6]Vec4) (Vec4, bool) {
	m := [nvMaxRows][nvMaxCols]float64{
		{pts[0].X, pts[1].X, pts[2].X, pts[3].X, pts[4].X, pts[5].X},
		{pts[0].Y, pts[1].Y, pts[2].Y, pts[3].Y, pts[4].Y, pts[5].Y},
		{pts[0].Z, pts[1].Z, pts[2].Z, pts[3].Z, pts[4].Z, pts[5].Z},
		{pts[0].W, pts[1].W, pts[2].W, pts[3].W, pts[4].W, pts[5].W},
		{1, 1, 1, 1, 1, 1},
	}
	l, ok := nullVectorFixed(&m, 5, 6)
	if !ok {
		return centroid4(pts[:]), false
	}
	var r Vec4
	pos := 0.0
	for i := 0; i < 6; i++ {
		if li := l[i]; li > 0 {
			r = r.Add(pts[i].Scale(li))
			pos += li
		}
	}
	if pos < 1e-12 {
		return centroid4(pts[:]), false
	}
	return r.Scale(1 / pos), true
}

func centroid4(pts []Vec4) Vec4 {
	if len(pts) == 0 {
		return Vec4{}
	}
	var c Vec4
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// cpWork4 pools the Centerpoint4 working copy, mirroring cpWork3.
var cpWork4 = sync.Pool{New: func() any { s := []Vec4(nil); return &s }}

// Centerpoint4 estimates a centerpoint of points in R⁴ by iterated
// Radon points, mirroring Centerpoint.
func Centerpoint4(pts []Vec4, rng *rand.Rand) Vec4 {
	if len(pts) == 0 {
		panic("geometry: Centerpoint4 of empty point set")
	}
	wp := cpWork4.Get().(*[]Vec4)
	buf := append((*wp)[:0], pts...)
	*wp = buf
	defer cpWork4.Put(wp)
	work := buf
	for len(work) > 6 {
		rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		next := work[:0:len(work)]
		for i := 0; i+6 <= len(work); i += 6 {
			var group [6]Vec4
			copy(group[:], work[i:i+6])
			r, _ := RadonPoint4(group)
			next = append(next, r)
		}
		if len(next) == 0 {
			return centroid4(work)
		}
		work = next
	}
	return centroid4(work)
}

// RandomUnitVec4 returns a uniformly distributed point on the unit
// 3-sphere.
func RandomUnitVec4(rng *rand.Rand) Vec4 {
	for {
		v := Vec4{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if n := v.Norm(); n > 1e-9 {
			return v.Scale(1 / n)
		}
	}
}
