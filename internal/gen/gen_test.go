package gen

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// TestSuiteGraphsWellFormed builds the whole suite at small scale and
// checks structural invariants: connected, validated, sensible sizes.
func TestSuiteGraphsWellFormed(t *testing.T) {
	for _, e := range SuiteEntries() {
		g := e.Build(0.04)
		if g.Name != e.Name {
			t.Fatalf("%s: name mismatch %q", e.Name, g.Name)
		}
		if err := g.G.Validate(); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		if _, comps := graph.Components(g.G); comps != 1 {
			t.Fatalf("%s: %d components", e.Name, comps)
		}
		if g.Coords != nil && len(g.Coords) != g.G.NumVertices() {
			t.Fatalf("%s: coords length mismatch", e.Name)
		}
		if g.G.NumVertices() < 100 {
			t.Fatalf("%s: only %d vertices at scale 0.04", e.Name, g.G.NumVertices())
		}
	}
}

// TestSuiteDeterministic: two builds must be identical.
func TestSuiteDeterministic(t *testing.T) {
	for _, e := range SuiteEntries()[:4] {
		a := e.Build(0.03)
		b := e.Build(0.03)
		if a.G.NumVertices() != b.G.NumVertices() || a.G.NumEdges() != b.G.NumEdges() {
			t.Fatalf("%s: nondeterministic sizes", e.Name)
		}
		for i := range a.G.Adjncy {
			if a.G.Adjncy[i] != b.G.Adjncy[i] {
				t.Fatalf("%s: adjacency differs at %d", e.Name, i)
			}
		}
	}
}

// TestBuildLooksUpSuiteNames: Build returns the named suite entry's
// graph, and every name outside the suite gets the same one-line error,
// which lists the suite's names.
func TestBuildLooksUpSuiteNames(t *testing.T) {
	for _, e := range SuiteEntries() {
		got, err := Build(e.Name, 0.02)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		want := e.Build(0.02)
		if got.Name != e.Name || !slices.Equal(got.G.XAdj, want.G.XAdj) || !slices.Equal(got.G.Adjncy, want.G.Adjncy) {
			t.Fatalf("%s: Build differs from the entry's own build", e.Name)
		}
	}
	var msgs []string
	for _, name := range []string{"nope", "", "Ecology1"} {
		g, err := Build(name, 0.02)
		if err == nil || g != nil {
			t.Fatalf("Build(%q) = %v, %v; want an error", name, g, err)
		}
		msg := strings.Replace(err.Error(), strconv.Quote(name), "NAME", 1)
		if strings.Contains(msg, "\n") || !strings.Contains(msg, "hugebubbles-00020") {
			t.Fatalf("Build(%q): error %q, want one line listing the suite", name, err)
		}
		msgs = append(msgs, msg)
	}
	if msgs[0] != msgs[1] || msgs[1] != msgs[2] {
		t.Fatalf("unknown names get different errors: %q", msgs)
	}
}

// TestSuiteScaling: scale must control size roughly linearly.
func TestSuiteScaling(t *testing.T) {
	e := SuiteEntries()[2] // delaunay_n20
	small := e.Build(0.05).G.NumVertices()
	large := e.Build(0.2).G.NumVertices()
	ratio := float64(large) / float64(small)
	if ratio < 3 || ratio > 5 {
		t.Fatalf("scaling ratio %v, want ~4", ratio)
	}
}

// TestCheckScale: only positive finite scales are accepted.
func TestCheckScale(t *testing.T) {
	for _, s := range []float64{1, 0.05, 8, 1e-300} {
		if err := CheckScale(s); err != nil {
			t.Errorf("CheckScale(%v) = %v, want nil", s, err)
		}
	}
	for _, s := range []float64{0, math.Copysign(0, -1), -3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := CheckScale(s); err == nil {
			t.Errorf("CheckScale(%v) accepted", s)
		}
	}
}

func TestKKTPowerHeavyTail(t *testing.T) {
	g := KKTPower(6000, 44).G
	degs := make([]int, g.NumVertices())
	for v := range degs {
		degs[v] = g.Degree(int32(v))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	if degs[0] < 30 {
		t.Fatalf("max degree %d: expected hub structure", degs[0])
	}
	// Constraint vertices (two-thirds of the graph) have small degree.
	median := degs[len(degs)/2]
	if median > 6 {
		t.Fatalf("median degree %d: expected sparse tail", median)
	}
}

func TestBarabasiAlbertDegreeSum(t *testing.T) {
	g := BarabasiAlbert(500, 2, 1)
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	// m edges per new vertex (some merged): edges close to 2n.
	if g.NumEdges() < 900 || g.NumEdges() > 1000 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestTraceIsElongated(t *testing.T) {
	g := Trace(4000, 55)
	if _, comps := graph.Components(g.G); comps != 1 {
		t.Fatalf("%d components", comps)
	}
	// The ribbon should be much wider than tall overall but locally
	// thin: check aspect of the bounding box.
	minX, maxX := g.Coords[0].X, g.Coords[0].X
	minY, maxY := g.Coords[0].Y, g.Coords[0].Y
	for _, p := range g.Coords {
		if p.X < minX {
			minX = p.X
		}
		if p.X > maxX {
			maxX = p.X
		}
		if p.Y < minY {
			minY = p.Y
		}
		if p.Y > maxY {
			maxY = p.Y
		}
	}
	if (maxX - minX) < 2*(maxY-minY)/2 {
		t.Fatalf("trace bounding box %v x %v not elongated", maxX-minX, maxY-minY)
	}
}

func TestBubblesHasHoles(t *testing.T) {
	g := Bubbles(6000, 8, 66)
	if _, comps := graph.Components(g.G); comps != 1 {
		t.Fatalf("%d components", comps)
	}
	// Planar-ish mesh: average degree < 7.
	if avg := float64(2*g.G.NumEdges()) / float64(g.G.NumVertices()); avg > 7 {
		t.Fatalf("avg degree %v", avg)
	}
}

func TestRMAT(t *testing.T) {
	g := RMAT(10, 8, 3)
	if g.G.NumVertices() < 256 {
		t.Fatalf("rmat too small: %d", g.G.NumVertices())
	}
	if err := g.G.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMortonRelabelPreservesStructure: same degree multiset, same
// number of edges, improved locality.
func TestMortonRelabelPreservesStructure(t *testing.T) {
	orig := func() *Generated {
		// Rebuild Delaunay WITHOUT relabel by calling the pieces.
		return DelaunayRandom(2000, 9)
	}()
	g := orig.G
	// Locality metric: mean |u-v| over edges should be far below n/3
	// (random labels would give ~n/3).
	var sum float64
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				sum += float64(v - u)
			}
		}
	}
	mean := sum / float64(g.NumEdges())
	if mean > float64(g.NumVertices())/6 {
		t.Fatalf("mean id distance %v suggests relabelling is not applied", mean)
	}
	// Degree histogram must match a fresh un-relabelled triangulation
	// (structure preserved by permutation).
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLargestComponent(t *testing.T) {
	b := graph.NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4) // smaller component
	g, _ := LargestComponent(b.Build(), nil)
	if g.NumVertices() != 3 {
		t.Fatalf("kept %d vertices, want 3", g.NumVertices())
	}
}

func TestRandomGeometricConnectedAtSensibleRadius(t *testing.T) {
	g := RandomGeometric(2000, 0.05, 7)
	if _, comps := graph.Components(g.G); comps != 1 {
		t.Fatalf("rgg disconnected: %d comps", comps)
	}
}

func TestCircuitHasShortsAndWires(t *testing.T) {
	g := Circuit(40, 40, 33)
	grid := Grid2D(40, 40)
	if g.G.NumEdges() <= grid.G.NumEdges() {
		t.Fatal("circuit has no extra edges over the grid")
	}
}

// TestBarabasiAlbertDeterministic guards the preferential-attachment
// construction against map-iteration-order leaks: the target list must
// grow in draw order, so the same seed yields the same graph in every
// process. (kkt_power inherits this; its bench rows are tracked across
// PRs and must be reproducible.)
func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := KKTPower(4000, 7)
	b := KKTPower(4000, 7)
	if a.G.NumVertices() != b.G.NumVertices() || a.G.NumEdges() != b.G.NumEdges() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d vertices/edges",
			a.G.NumVertices(), a.G.NumEdges(), b.G.NumVertices(), b.G.NumEdges())
	}
	for i := range a.G.Adjncy {
		if a.G.Adjncy[i] != b.G.Adjncy[i] {
			t.Fatalf("adjacency differs at arc %d", i)
		}
	}
}

// assertGraphsEqual fails unless a and b are bit-identical CSR graphs.
func assertGraphsEqual(t *testing.T, name string, want, got *graph.Graph) {
	t.Helper()
	if want.NumVertices() != got.NumVertices() || want.NumEdges() != got.NumEdges() {
		t.Fatalf("%s: n=%d m=%d, want n=%d m=%d", name,
			got.NumVertices(), got.NumEdges(), want.NumVertices(), want.NumEdges())
	}
	for i := range want.XAdj {
		if want.XAdj[i] != got.XAdj[i] {
			t.Fatalf("%s: XAdj[%d]=%d want %d", name, i, got.XAdj[i], want.XAdj[i])
		}
	}
	for i := range want.Adjncy {
		if want.Adjncy[i] != got.Adjncy[i] {
			t.Fatalf("%s: Adjncy[%d]=%d want %d", name, i, got.Adjncy[i], want.Adjncy[i])
		}
	}
	if (want.EWgt == nil) != (got.EWgt == nil) {
		t.Fatalf("%s: EWgt nil-ness differs", name)
	}
}

// TestStreamedGeneratorsMatchBuilder replays each converted generator's
// emission stream through the legacy Builder and asserts the streamed
// construction is bit-identical — the conversion to BuildStreamed must
// not move a single edge.
func TestStreamedGeneratorsMatchBuilder(t *testing.T) {
	viaBuilder := func(n int, emit func(add func(u, v, w int32))) *graph.Graph {
		b := graph.NewBuilder(n)
		emit(func(u, v, w int32) { b.AddWeightedEdge(u, v, w) })
		return b.Build()
	}
	// RMAT: legacy = Builder over the same stream, then LargestComponent.
	want, _ := LargestComponent(viaBuilder(1<<10, rmatEmit(10, 8, 7)), nil)
	assertGraphsEqual(t, "rmat", want, RMAT(10, 8, 7).G)
	// BarabasiAlbert: direct comparison.
	assertGraphsEqual(t, "ba", viaBuilder(1500, baEmit(1500, 3, 11)), BarabasiAlbert(1500, 3, 11))
	// KKTPower: rebuild the derived KKT system with the Builder.
	base := BarabasiAlbert(1000, 2, 13)
	n := 1000 + base.NumEdges()
	assertGraphsEqual(t, "kkt", viaBuilder(n, kktEmit(base, 1000)), KKTPower(3000, 13).G)
}

// RMAT builds an R-MAT graph with 2^scale vertices and roughly
// edgeFactor·2^scale distinct edges using the standard (0.57, 0.19,
// 0.19, 0.05) partition probabilities. Used by tests for a skewed,
// coordinate-free workload.
func RMAT(scale, edgeFactor int, seed int64) *Generated {
	n := 1 << scale
	g, _ := LargestComponent(graph.BuildStreamed(n, rmatEmit(scale, edgeFactor, seed)), nil)
	return &Generated{Name: "rmat", G: g}
}

// rmatEmit is the R-MAT edge stream: pure per-edge RNG from the seed,
// replayed identically on each invocation.
func rmatEmit(scale, edgeFactor int, seed int64) func(add func(u, v, w int32)) {
	return func(add func(u, v, w int32)) {
		n := 1 << scale
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < n*edgeFactor; k++ {
			u, v := 0, 0
			for bit := 0; bit < scale; bit++ {
				r := rng.Float64()
				switch {
				case r < 0.57:
				case r < 0.76:
					v |= 1 << bit
				case r < 0.95:
					u |= 1 << bit
				default:
					u |= 1 << bit
					v |= 1 << bit
				}
			}
			if u != v {
				add(int32(u), int32(v), 1)
			}
		}
	}
}
