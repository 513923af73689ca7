package gen

import (
	"fmt"
	"math"
)

// SuiteEntry names one graph of the evaluation suite and knows how to
// build it at a given scale.
type SuiteEntry struct {
	Name  string
	Build func(scale float64) *Generated
}

// scaled returns max(lo, round(n·scale)).
func scaled(n int, scale float64, lo int) int {
	v := int(float64(n)*scale + 0.5)
	if v < lo {
		v = lo
	}
	return v
}

// SuiteEntries returns the nine-graph analogue of the paper's Table 1
// test suite, in the paper's order. scale=1 produces the default bench
// sizes (≈100× smaller than the paper's 1–21M-vertex originals, chosen
// so the full 1–1024-rank sweep runs on one machine); tests use smaller
// scales. Each entry is deterministic.
func SuiteEntries() []SuiteEntry {
	side := func(n int, scale float64, lo int) int {
		s := scaled(n, scale, lo)
		return s
	}
	return []SuiteEntry{
		{"ecology1", func(s float64) *Generated {
			g := Grid2D(side(128, sqrtScale(s), 12), side(128, sqrtScale(s), 12))
			g.Name = "ecology1"
			return g
		}},
		{"ecology2", func(s float64) *Generated {
			g := Grid2D(side(127, sqrtScale(s), 12), side(129, sqrtScale(s), 12))
			g.Name = "ecology2"
			return g
		}},
		{"delaunay_n20", func(s float64) *Generated {
			g := DelaunayRandom(scaled(16384, s, 256), 2020)
			g.Name = "delaunay_n20"
			return g
		}},
		{"G3_circuit", func(s float64) *Generated {
			g := Circuit(side(158, sqrtScale(s), 12), side(158, sqrtScale(s), 12), 33)
			g.Name = "G3_circuit"
			return g
		}},
		{"kkt_power", func(s float64) *Generated {
			g := KKTPower(scaled(33000, s, 300), 44)
			g.Name = "kkt_power"
			return g
		}},
		{"hugetrace-00000", func(s float64) *Generated {
			g := Trace(scaled(72000, s, 400), 55)
			g.Name = "hugetrace-00000"
			return g
		}},
		{"delaunay_n23", func(s float64) *Generated {
			g := DelaunayRandom(scaled(131072, s, 512), 2323)
			g.Name = "delaunay_n23"
			return g
		}},
		{"delaunay_n24", func(s float64) *Generated {
			g := DelaunayRandom(scaled(262144, s, 1024), 2424)
			g.Name = "delaunay_n24"
			return g
		}},
		{"hugebubbles-00020", func(s float64) *Generated {
			g := Bubbles(scaled(280000, s, 1200), 20, 66)
			g.Name = "hugebubbles-00020"
			return g
		}},
	}
}

// sqrtScale converts an area scale into a side-length scale for the
// grid-shaped graphs, so that vertex counts scale like the others.
func sqrtScale(s float64) float64 {
	if err := CheckScale(s); err != nil {
		panic("gen: " + err.Error())
	}
	return math.Sqrt(s)
}

// CheckScale rejects a suite scale that is not positive and finite.
// Such a scale has no meaning: the grid-shaped entries cannot take its
// square root, and every other entry would build its floor size.
func CheckScale(s float64) error {
	if !(s > 0) || math.IsInf(s, 1) {
		return fmt.Errorf("suite scale must be positive and finite (got %v)", s)
	}
	return nil
}
