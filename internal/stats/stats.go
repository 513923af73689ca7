// Package stats provides the small statistical helpers used by the
// benchmark harness: geometric means, medians and quantiles over
// cut-sizes and timings.
package stats

import (
	"math"
	"sort"
)

// GeoMean returns the geometric mean of xs. It returns 0 for an empty
// slice and panics if any value is non-positive, since a non-positive
// cut-size or timing indicates a harness bug.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			panic("stats: GeoMean requires positive values")
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Median returns the median of xs without modifying it, or 0 for an
// empty slice. For even lengths it returns the mean of the two middle
// elements.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	mid := len(cp) / 2
	if len(cp)%2 == 1 {
		return cp[mid]
	}
	return (cp[mid-1] + cp[mid]) / 2
}

// QuickSelect returns the k-th smallest element (0-based) of xs,
// without modifying the input. It runs in expected linear time.
func QuickSelect(xs []float64, k int) float64 {
	if k < 0 || k >= len(xs) {
		panic("stats: QuickSelect index out of range")
	}
	work := append([]float64(nil), xs...)
	lo, hi := 0, len(work)-1
	for lo < hi {
		// Median-of-three pivot guards the common sorted inputs.
		mid := lo + (hi-lo)/2
		if work[mid] < work[lo] {
			work[mid], work[lo] = work[lo], work[mid]
		}
		if work[hi] < work[lo] {
			work[hi], work[lo] = work[lo], work[hi]
		}
		if work[hi] < work[mid] {
			work[hi], work[mid] = work[mid], work[hi]
		}
		pivot := work[mid]
		i, j := lo, hi
		for i <= j {
			for work[i] < pivot {
				i++
			}
			for work[j] > pivot {
				j--
			}
			if i <= j {
				work[i], work[j] = work[j], work[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return work[k]
		}
	}
	return work[lo]
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs via QuickSelect.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: Quantile of empty slice")
	}
	k := int(q * float64(len(xs)))
	if k >= len(xs) {
		k = len(xs) - 1
	}
	if k < 0 {
		k = 0
	}
	return QuickSelect(xs, k)
}
