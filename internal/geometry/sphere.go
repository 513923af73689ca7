package geometry

import "math/rand"

// StereoUp lifts a point in the plane onto the unit sphere in R^3 by
// inverse stereographic projection from the north pole (0,0,1):
//
//	(x, y)  ->  (2x, 2y, x^2+y^2-1) / (x^2+y^2+1)
//
// The origin maps to the south pole and points at infinity approach the
// north pole. This is the "project up" step of the geometric mesh
// partitioner of Gilbert, Miller and Teng.
func StereoUp(p Vec2) Vec3 {
	d := p.X*p.X + p.Y*p.Y + 1
	return Vec3{2 * p.X / d, 2 * p.Y / d, (d - 2) / d}
}

// Moebius is the Möbius automorphism of the unit ball that maps an
// interior point a to the origin. Applied to points on the unit sphere
// it is the conformal map used by the geometric mesh partitioner: after
// mapping, the (approximate) centerpoint a sits at the sphere's center,
// so every great circle through the origin is a provably balanced
// separator of the original point set.
//
// The transformation is the standard ball automorphism
//
//	phi_a(x) = ((1-|a|^2)(x-a) - |x-a|^2 a) / (1 - 2<x,a> + |x|^2 |a|^2)
//
// which fixes the unit sphere setwise and sends a to 0. It is a plain
// value, so batched kernels can hold a slice of maps and apply them
// without a closure allocation or indirect call per point.
type Moebius struct {
	a  Vec3
	aa float64
}

// NewMoebius returns the ball automorphism that maps a to the origin.
// If |a| >= 1 it shrinks a to just inside the ball first, since a
// centerpoint estimate can land on (or, through rounding, outside) the
// sphere only in degenerate inputs.
func NewMoebius(a Vec3) Moebius {
	if n := a.Norm(); n >= 0.999 {
		a = a.Scale(0.999 / n)
	}
	return Moebius{a: a, aa: a.Dot(a)}
}

// Apply evaluates the automorphism at x.
func (m Moebius) Apply(x Vec3) Vec3 {
	a, aa := m.a, m.aa
	xa := x.Sub(a)
	den := 1 - 2*x.Dot(a) + x.Dot(x)*aa
	if den < 1e-12 {
		den = 1e-12
	}
	num := xa.Scale(1 - aa).Sub(a.Scale(xa.Dot(xa)))
	return num.Scale(1 / den)
}

// ApplyDots is the fused projection kernel of the batched geometric
// partitioner: it maps q through m once and writes q'·us[j] into
// out[j]. out must have length len(us). The mapped point never hits
// memory, so evaluating every separator direction of one Möbius map for
// one vertex is a single cache-resident pass.
func (m Moebius) ApplyDots(q Vec3, us []Vec3, out []float64) {
	p := m.Apply(q)
	for j, u := range us {
		out[j] = p.Dot(u)
	}
}

// RandomUnitVec3 returns a uniformly distributed point on the unit
// sphere, drawn from rng via the Gaussian method.
func RandomUnitVec3(rng *rand.Rand) Vec3 {
	for {
		v := Vec3{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if n := v.Norm(); n > 1e-9 {
			return v.Scale(1 / n)
		}
	}
}

// RandomUnitVec2 returns a uniformly distributed direction in the
// plane.
func RandomUnitVec2(rng *rand.Rand) Vec2 {
	for {
		v := Vec2{rng.NormFloat64(), rng.NormFloat64()}
		if n := v.Norm(); n > 1e-9 {
			return v.Scale(1 / n)
		}
	}
}
