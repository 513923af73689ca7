package geometry

import (
	"math/rand"
	"sync"
)

// RadonPoint computes a Radon point of d+2 points in R^d: a point that
// lies in the convex hulls of both classes of a Radon partition of the
// points. Any d+2 points in R^d admit such a partition. The returned
// bool is false when the computation degenerates numerically (e.g. all
// the points coincide), in which case the centroid is returned.
// RadonPoint panics unless len(pts) is d+2.
//
// The elimination runs on fixed-size stack arrays (nullVectorFixed), so
// the call is allocation-free; the solution is bit-identical to the
// general NullVector reference in the package's tests.
func RadonPoint[V Vector[V]](pts []V) (V, bool) {
	d := Dim[V]()
	if len(pts) != d+2 {
		panic("geometry: RadonPoint needs d+2 points")
	}
	// Find a non-trivial affine dependence: sum l_i p_i = 0 with
	// sum l_i = 0. That is a (d+1)×(d+2) homogeneous system.
	var m [nvMaxRows][nvMaxCols]float64
	for j, p := range pts {
		c, _ := p.Coords()
		for i := 0; i < d; i++ {
			m[i][j] = c[i]
		}
		m[d][j] = 1
	}
	l, ok := nullVectorFixed(&m, d+1, d+2)
	if !ok {
		return Centroid(pts), false
	}
	// The Radon point is the convex combination of the positive class.
	var r V
	pos := 0.0
	for i, p := range pts {
		if li := l[i]; li > 0 {
			r = r.Add(p.Scale(li))
			pos += li
		}
	}
	if pos < 1e-12 {
		return Centroid(pts), false
	}
	return r.Scale(1 / pos), true
}

// cpWork pools the Centerpoint working copy, one pool per dimension
// (a pool holds *[]V of that dimension's V): the iterated-Radon
// reduction runs once per candidate round on every rank, and the sample
// size is stable across calls, so the buffer is reused verbatim.
var cpWork [5]sync.Pool

// Centerpoint returns an approximate centerpoint of pts in R^d using
// the iterated-Radon-point algorithm (Clarkson et al.): the working set
// is repeatedly shuffled and every group of d+2 points is replaced by
// its Radon point, until at most d+2 points remain; their centroid is
// the estimate. A true centerpoint c guarantees that every halfspace
// containing c contains at least 1/(d+1) of the points; the iterated
// estimate approaches that guarantee with high probability.
//
// The input is not modified. Centerpoint panics on an empty slice.
func Centerpoint[V Vector[V]](pts []V, rng *rand.Rand) V {
	if len(pts) == 0 {
		panic("geometry: Centerpoint of empty point set")
	}
	group := Dim[V]() + 2
	pool := &cpWork[group-2]
	wp, _ := pool.Get().(*[]V)
	if wp == nil {
		wp = new([]V)
	}
	buf := append((*wp)[:0], pts...)
	*wp = buf
	defer pool.Put(wp)
	work := buf
	for len(work) > group {
		rng.Shuffle(len(work), func(i, j int) { work[i], work[j] = work[j], work[i] })
		// Each Radon point overwrites a slot its own group or an
		// earlier one has already been read from. A short tail (fewer
		// than d+2 leftovers) is dropped; the shuffle makes the drop
		// unbiased across rounds.
		next := work[:0:len(work)]
		for i := 0; i+group <= len(work); i += group {
			r, _ := RadonPoint(work[i : i+group])
			next = append(next, r)
		}
		work = next
	}
	return Centroid(work)
}
