package geometry

import (
	"math/rand"
	"sync"
)

// RadonPoint computes a Radon point of five points in R^3: a point that
// lies in the convex hulls of both classes of a Radon partition of the
// points. Any d+2 points in R^d admit such a partition. The returned
// bool is false when the computation degenerates numerically (e.g. all
// five points coincide), in which case the centroid is returned.
//
// The elimination runs on fixed-size stack arrays (nullVectorFixed), so
// the call is allocation-free; the solution is bit-identical to the
// general NullVector reference in the package's tests.
func RadonPoint(pts [5]Vec3) (Vec3, bool) {
	// Find a non-trivial affine dependence: sum l_i p_i = 0 with
	// sum l_i = 0. That is a 4x5 homogeneous system.
	m := [nvMaxRows][nvMaxCols]float64{
		{pts[0].X, pts[1].X, pts[2].X, pts[3].X, pts[4].X},
		{pts[0].Y, pts[1].Y, pts[2].Y, pts[3].Y, pts[4].Y},
		{pts[0].Z, pts[1].Z, pts[2].Z, pts[3].Z, pts[4].Z},
		{1, 1, 1, 1, 1},
	}
	l, ok := nullVectorFixed(&m, 4, 5)
	if !ok {
		return Centroid3(pts[:]), false
	}
	// The Radon point is the convex combination of the positive class.
	var r Vec3
	pos := 0.0
	for i := 0; i < 5; i++ {
		if li := l[i]; li > 0 {
			r = r.Add(pts[i].Scale(li))
			pos += li
		}
	}
	if pos < 1e-12 {
		return Centroid3(pts[:]), false
	}
	return r.Scale(1 / pos), true
}

// cpWork3 pools the Centerpoint working copy: the iterated-Radon
// reduction runs once per candidate round on every rank, and the sample
// size is stable across calls, so the buffer is reused verbatim.
var cpWork3 = sync.Pool{New: func() any { s := []Vec3(nil); return &s }}

// Centerpoint returns an approximate centerpoint of pts using the
// iterated-Radon-point algorithm (Clarkson et al.): the working set is
// repeatedly shuffled and every group of five points is replaced by its
// Radon point, until at most five points remain; their centroid is the
// estimate. A true centerpoint c guarantees that every halfspace
// containing c contains at least 1/(d+2) = 1/5 of the points; the
// iterated estimate approaches that guarantee with high probability.
//
// The input is not modified. Centerpoint panics on an empty slice.
func Centerpoint(pts []Vec3, rng *rand.Rand) Vec3 {
	if len(pts) == 0 {
		panic("geometry: Centerpoint of empty point set")
	}
	wp := cpWork3.Get().(*[]Vec3)
	buf := append((*wp)[:0], pts...)
	*wp = buf
	defer cpWork3.Put(wp)
	work := buf
	for len(work) > 5 {
		rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		next := work[:0:len(work)]
		i := 0
		for ; i+5 <= len(work); i += 5 {
			var group [5]Vec3
			copy(group[:], work[i:i+5])
			r, _ := RadonPoint(group)
			next = append(next, r)
		}
		// A short tail (fewer than five leftovers) is dropped; the
		// shuffle makes the drop unbiased across rounds.
		if len(next) == 0 {
			// Fewer than 5 remained after grouping; fall back.
			return Centroid3(work)
		}
		work = next
	}
	return Centroid3(work)
}
