package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean = %v", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean not 0")
	}
}

func TestMeanMedian(t *testing.T) {
	if m := Median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median odd = %v", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}

// TestQuickSelectMatchesSort: property check against the sorted slice.
func TestQuickSelectMatchesSort(t *testing.T) {
	f := func(xs []float64, kRaw uint8) bool {
		if len(xs) == 0 {
			return true
		}
		for _, x := range xs {
			if math.IsNaN(x) {
				return true
			}
		}
		k := int(kRaw) % len(xs)
		want := append([]float64(nil), xs...)
		sort.Float64s(want)
		before := append([]float64(nil), xs...)
		got := QuickSelect(xs, k)
		// Input must be untouched.
		for i := range xs {
			if xs[i] != before[i] {
				return false
			}
		}
		return got == want[k]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 0.999); q != 9 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); q != 5 {
		t.Fatalf("q.5 = %v", q)
	}
}
