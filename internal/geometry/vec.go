// Package geometry implements the computational-geometry substrate of
// the Gilbert–Miller–Teng geometric mesh partitioner: 2-D and 3-D
// vectors, stereographic lifts from the plane to the unit sphere,
// approximate centerpoints via iterated Radon points, the conformal
// dilation that centers a point cloud, and great-circle separators.
package geometry

import "math"

// Vec2 is a point or vector in the plane.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s·v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the inner product of v and w.
func (v Vec2) Dot(w Vec2) float64 { return v.X*w.X + v.Y*w.Y }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between v and w.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// Vec3 is a point or vector in 3-space.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s·v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the inner product of v and w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and w.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Rect is an axis-aligned bounding box in the plane with corners
// (X0,Y0) (bottom-left) and (X1,Y1) (top-right).
type Rect struct {
	X0, Y0, X1, Y1 float64
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.X1 - r.X0 }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Y1 - r.Y0 }

// Center returns the midpoint of r.
func (r Rect) Center() Vec2 { return Vec2{(r.X0 + r.X1) / 2, (r.Y0 + r.Y1) / 2} }

// Contains reports whether p lies inside r (boundary inclusive).
func (r Rect) Contains(p Vec2) bool {
	return p.X >= r.X0 && p.X <= r.X1 && p.Y >= r.Y0 && p.Y <= r.Y1
}

// Clamp returns p moved to the nearest point inside r.
func (r Rect) Clamp(p Vec2) Vec2 {
	return Vec2{clamp(p.X, r.X0, r.X1), clamp(p.Y, r.Y0, r.Y1)}
}

// Scale returns r with both dimensions scaled by s about the origin.
func (r Rect) Scale(s float64) Rect {
	return Rect{r.X0 * s, r.Y0 * s, r.X1 * s, r.Y1 * s}
}

// Expand returns r grown by margin on every side.
func (r Rect) Expand(margin float64) Rect {
	return Rect{r.X0 - margin, r.Y0 - margin, r.X1 + margin, r.Y1 + margin}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// BoundingRect returns the tight axis-aligned bounding box of pts. It
// panics on an empty slice.
func BoundingRect(pts []Vec2) Rect {
	if len(pts) == 0 {
		panic("geometry: BoundingRect of empty point set")
	}
	r := Rect{pts[0].X, pts[0].Y, pts[0].X, pts[0].Y}
	for _, p := range pts[1:] {
		if p.X < r.X0 {
			r.X0 = p.X
		}
		if p.X > r.X1 {
			r.X1 = p.X
		}
		if p.Y < r.Y0 {
			r.Y0 = p.Y
		}
		if p.Y > r.Y1 {
			r.Y1 = p.Y
		}
	}
	return r
}

// Centroid2 returns the arithmetic mean of pts, or the zero vector for
// an empty slice.
func Centroid2(pts []Vec2) Vec2 {
	if len(pts) == 0 {
		return Vec2{}
	}
	var c Vec2
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}

// Centroid3 returns the arithmetic mean of pts, or the zero vector for
// an empty slice.
func Centroid3(pts []Vec3) Vec3 {
	if len(pts) == 0 {
		return Vec3{}
	}
	var c Vec3
	for _, p := range pts {
		c = c.Add(p)
	}
	return c.Scale(1 / float64(len(pts)))
}
