package gen

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/graph"
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
	// side is a grid side length at area scale s.
	side := func(n int, s float64) int { return scaled(n, sqrtScale(s), 12) }
	entries := []SuiteEntry{
		{"ecology1", func(s float64) *Generated { return Grid2D(side(128, s), side(128, s)) }},
		{"ecology2", func(s float64) *Generated { return Grid2D(side(127, s), side(129, s)) }},
		{"delaunay_n20", func(s float64) *Generated { return DelaunayRandom(scaled(16384, s, 256), 2020) }},
		{"G3_circuit", func(s float64) *Generated { return Circuit(side(158, s), side(158, s), 33) }},
		{"kkt_power", func(s float64) *Generated { return KKTPower(scaled(33000, s, 300), 44) }},
		{"hugetrace-00000", func(s float64) *Generated { return Trace(scaled(72000, s, 400), 55) }},
		{"delaunay_n23", func(s float64) *Generated { return DelaunayRandom(scaled(131072, s, 512), 2323) }},
		{"delaunay_n24", func(s float64) *Generated { return DelaunayRandom(scaled(262144, s, 1024), 2424) }},
		{"hugebubbles-00020", func(s float64) *Generated { return Bubbles(scaled(280000, s, 1200), 20, 66) }},
	}
	for i, e := range entries {
		entries[i].Build = func(s float64) *Generated {
			g := e.Build(s)
			g.Name = e.Name
			return g
		}
	}
	return entries
}

// Build builds the suite graph with the given name at the given scale.
// A name outside the suite is an error that lists the suite's names.
func Build(name string, scale float64) (*Generated, error) {
	var names []string
	for _, e := range SuiteEntries() {
		if e.Name == name {
			return e.Build(scale), nil
		}
		names = append(names, e.Name)
	}
	return nil, fmt.Errorf("unknown suite graph %q (want one of %s)", name, strings.Join(names, ", "))
}

// Load returns the graph a command names: the graph in file (see
// graph.ReadFile), which carries no coordinates, or when file is empty
// the suite graph name at scale (see Build).
func Load(file, name string, scale float64) (*Generated, error) {
	if file == "" {
		return Build(name, scale)
	}
	g, err := graph.ReadFile(file)
	if err != nil {
		return nil, err
	}
	return &Generated{Name: file, G: g}, nil
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
