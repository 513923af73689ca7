package graph_test

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hostpar"
)

// randomGraph builds a valid random graph: n vertices, ~avgDeg average
// degree, optionally weighted, with a few hub vertices well above
// cLongDeg so both streams are exercised.
func randomGraph(t testing.TB, n, avgDeg int, weighted bool, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	edges := n * avgDeg / 2
	for i := 0; i < edges; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		if u == v {
			continue
		}
		if weighted {
			b.AddWeightedEdge(u, v, int32(1+rng.Intn(9)))
		} else {
			b.AddEdge(u, v)
		}
	}
	// A few hubs: connect vertex 0..2 to many targets so some rows land
	// in the long stream.
	for h := int32(0); h < 3 && int(h) < n; h++ {
		for i := 0; i < 80 && i < n-1; i++ {
			v := int32((int(h) + 1 + i) % n)
			if v == h {
				continue
			}
			if weighted {
				b.AddWeightedEdge(h, v, 2)
			} else {
				b.AddEdge(h, v)
			}
		}
	}
	return b.Build()
}

func sameGraph(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if len(want.XAdj) != len(got.XAdj) {
		t.Fatalf("XAdj length %d vs %d", len(want.XAdj), len(got.XAdj))
	}
	for i := range want.XAdj {
		if want.XAdj[i] != got.XAdj[i] {
			t.Fatalf("XAdj[%d]=%d want %d", i, got.XAdj[i], want.XAdj[i])
		}
	}
	if len(want.Adjncy) != len(got.Adjncy) {
		t.Fatalf("Adjncy length %d vs %d", len(want.Adjncy), len(got.Adjncy))
	}
	for i := range want.Adjncy {
		if want.Adjncy[i] != got.Adjncy[i] {
			t.Fatalf("Adjncy[%d]=%d want %d", i, got.Adjncy[i], want.Adjncy[i])
		}
	}
	if (want.EWgt == nil) != (got.EWgt == nil) {
		t.Fatalf("EWgt nil-ness %v vs %v", want.EWgt == nil, got.EWgt == nil)
	}
	for i := range want.EWgt {
		if want.EWgt[i] != got.EWgt[i] {
			t.Fatalf("EWgt[%d]=%d want %d", i, got.EWgt[i], want.EWgt[i])
		}
	}
}

func TestCompressRoundTrip(t *testing.T) {
	cases := []struct {
		name     string
		weighted bool
		n        int
		deg      int
	}{
		{"unweighted", false, 500, 6},
		{"weighted", true, 500, 6},
		{"tiny", false, 3, 1},
		{"sparse-with-isolated", false, 1000, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g := randomGraph(t, tc.n, tc.deg, tc.weighted, 42)
			cg := graph.Compress(g)
			if !cg.Compressed() {
				t.Fatal("Compress did not compress")
			}
			if cg.Adjncy != nil || cg.EWgt != nil {
				t.Fatal("compressed graph retains plain arrays")
			}
			if graph.Compress(cg) != cg {
				t.Fatal("Compress not idempotent")
			}
			if cg.NumEdges() != g.NumEdges() || cg.NumVertices() != g.NumVertices() {
				t.Fatalf("size mismatch: %v vs %v", cg, g)
			}
			sameGraph(t, g, cg.Plain())
			if p := g.Plain(); p != g {
				t.Fatal("Plain on a plain graph must return it unchanged")
			}
		})
	}
}

func TestCursorMatchesNeighbors(t *testing.T) {
	for _, weighted := range []bool{false, true} {
		g := randomGraph(t, 800, 5, weighted, 7)
		cg := graph.Compress(g)
		for _, tg := range []*graph.Graph{g, cg} {
			cur := graph.GetCursor(tg)
			// Sequential ascending scan (fast path).
			for v := int32(0); v < int32(tg.NumVertices()); v++ {
				nbrs, wgts := cur.Arcs(v)
				want := g.Neighbors(v)
				if len(nbrs) != len(want) {
					t.Fatalf("v=%d: %d nbrs want %d", v, len(nbrs), len(want))
				}
				for i := range want {
					if nbrs[i] != want[i] {
						t.Fatalf("v=%d nbr[%d]=%d want %d", v, i, nbrs[i], want[i])
					}
					if w := g.ArcWeight(g.XAdj[v] + int32(i)); wgts[i] != w {
						t.Fatalf("v=%d wgt[%d]=%d want %d", v, i, wgts[i], w)
					}
				}
			}
			// Random access (seek path).
			rng := rand.New(rand.NewSource(99))
			for i := 0; i < 2000; i++ {
				v := int32(rng.Intn(tg.NumVertices()))
				nbrs, _ := cur.Arcs(v)
				want := g.Neighbors(v)
				if len(nbrs) != len(want) {
					t.Fatalf("seek v=%d: %d nbrs want %d", v, len(nbrs), len(want))
				}
				for j := range want {
					if nbrs[j] != want[j] {
						t.Fatalf("seek v=%d nbr[%d]=%d want %d", v, j, nbrs[j], want[j])
					}
				}
			}
		}
	}
}

// Compressed Neighbors decodes a fresh slice; it must match the plain
// adjacency, and mutating it must not corrupt the stream.
func TestCompressedNeighborsFallback(t *testing.T) {
	g := randomGraph(t, 300, 4, true, 3)
	cg := graph.Compress(g)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		nb := cg.Neighbors(v)
		want := g.Neighbors(v)
		if len(nb) != len(want) {
			t.Fatalf("v=%d: %d nbrs want %d", v, len(nb), len(want))
		}
		for i := range want {
			if nb[i] != want[i] {
				t.Fatalf("v=%d nbr[%d]=%d want %d", v, i, nb[i], want[i])
			}
		}
		for i := range nb {
			nb[i] = -1 // fresh slice: must not affect the stream
		}
	}
	sameGraph(t, g, cg.Plain())
}

func TestCompressWorkerCountDeterminism(t *testing.T) {
	g := randomGraph(t, 3000, 6, true, 11)
	defer hostpar.SetWorkers(hostpar.SetWorkers(1))
	var ref *graph.Graph
	for _, w := range []int{1, 2, 8} {
		hostpar.SetWorkers(w)
		cg := graph.Compress(g)
		pl := cg.Plain()
		if ref == nil {
			ref = pl
			continue
		}
		sameGraph(t, ref, pl)
		if cg.AdjacencyBytes() != graph.Compress(g).AdjacencyBytes() {
			t.Fatalf("workers=%d: compressed size differs", w)
		}
	}
}

func TestArcWeightPanicsOnWeightedCompressed(t *testing.T) {
	g := randomGraph(t, 100, 4, true, 5)
	cg := graph.Compress(g)
	defer func() {
		if recover() == nil {
			t.Fatal("ArcWeight on weighted compressed graph did not panic")
		}
	}()
	cg.ArcWeight(0)
}

func TestValidateCompressed(t *testing.T) {
	g := randomGraph(t, 600, 5, true, 21)
	if err := g.Validate(); err != nil {
		t.Fatalf("plain Validate: %v", err)
	}
	if err := graph.Compress(g).Validate(); err != nil {
		t.Fatalf("compressed Validate: %v", err)
	}
}

func TestValidateDeterministicErrors(t *testing.T) {
	// Asymmetric: 0 lists 1 but 1 does not list 0. The error must name
	// the smallest (u,v) pair regardless of worker count.
	bad := &graph.Graph{
		XAdj:   []int32{0, 1, 1, 2, 3},
		Adjncy: []int32{1, 3, 2},
	}
	defer hostpar.SetWorkers(hostpar.SetWorkers(1))
	for _, w := range []int{1, 2, 8} {
		hostpar.SetWorkers(w)
		err := bad.Validate()
		if err == nil || err.Error() != "graph: asymmetric edge {0,1}" {
			t.Fatalf("workers=%d: got %v", w, err)
		}
	}
	loop := &graph.Graph{XAdj: []int32{0, 1}, Adjncy: []int32{0}}
	if err := loop.Validate(); err == nil || err.Error() != "graph: self-loop at vertex 0" {
		t.Fatalf("self-loop: got %v", err)
	}
	oor := &graph.Graph{XAdj: []int32{0, 1}, Adjncy: []int32{7}}
	if err := oor.Validate(); err == nil || err.Error() != "graph: neighbour 7 of vertex 0 out of range" {
		t.Fatalf("out of range: got %v", err)
	}
	// Duplicate arcs with matching symmetric sums stay legal.
	dup := &graph.Graph{
		XAdj:   []int32{0, 2, 4},
		Adjncy: []int32{1, 1, 0, 0},
		EWgt:   []int32{2, 3, 4, 1},
	}
	if err := dup.Validate(); err != nil {
		t.Fatalf("symmetric duplicate arcs must validate: %v", err)
	}
}

// Acceptance bound: compressed adjacency at most 60% of the plain
// []int32 Adjncy bytes on every suite graph.
func TestCompressionRatioSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite generation in -short")
	}
	for _, e := range gen.SuiteEntries() {
		gg := e.Build(0.05)
		g := gg.G
		raw := 4 * int64(len(g.Adjncy))
		if g.EWgt != nil {
			raw += 4 * int64(len(g.EWgt))
		}
		comp := graph.Compress(g).AdjacencyBytes()
		ratio := float64(comp) / float64(raw)
		t.Logf("%-18s n=%-8d m=%-8d raw=%-9d comp=%-9d ratio=%.3f",
			gg.Name, g.NumVertices(), g.NumEdges(), raw, comp, ratio)
		if ratio > 0.60 {
			t.Errorf("%s: compressed/raw = %.3f > 0.60", gg.Name, ratio)
		}
	}
}

// Cursor sequential iteration over a compressed graph must not allocate
// in steady state.
func TestCursorSteadyStateAllocs(t *testing.T) {
	g := randomGraph(t, 2000, 6, true, 17)
	cg := graph.Compress(g)
	cur := graph.GetCursor(cg)
	n := int32(cg.NumVertices())
	// Warm up scratch.
	for v := int32(0); v < n; v++ {
		cur.Arcs(v)
	}
	allocs := testing.AllocsPerRun(10, func() {
		for v := int32(0); v < n; v++ {
			cur.Arcs(v)
		}
	})
	if allocs > 0 {
		t.Fatalf("cursor sequential scan allocates %.1f per run", allocs)
	}
}

func FuzzCompressRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(50), uint8(4), true)
	f.Add(int64(2), uint16(200), uint8(2), false)
	f.Add(int64(3), uint16(5), uint8(1), true)
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint16, degRaw uint8, weighted bool) {
		n := int(nRaw)%1000 + 2
		deg := int(degRaw)%12 + 1
		g := randomGraph(t, n, deg, weighted, seed)
		cg := graph.Compress(g)
		pl := cg.Plain()
		for i := range g.Adjncy {
			if g.Adjncy[i] != pl.Adjncy[i] {
				t.Fatalf("Adjncy[%d]=%d want %d", i, pl.Adjncy[i], g.Adjncy[i])
			}
		}
		for i := range g.EWgt {
			if g.EWgt[i] != pl.EWgt[i] {
				t.Fatalf("EWgt[%d]=%d want %d", i, pl.EWgt[i], g.EWgt[i])
			}
		}
		cur := graph.GetCursor(cg)
		for v := int32(0); v < int32(n); v++ {
			nbrs, wgts := cur.Arcs(v)
			want := g.Neighbors(v)
			if len(nbrs) != len(want) {
				t.Fatalf("v=%d: %d nbrs want %d", v, len(nbrs), len(want))
			}
			for i := range want {
				if nbrs[i] != want[i] || wgts[i] != g.ArcWeight(g.XAdj[v]+int32(i)) {
					t.Fatalf("v=%d arc %d mismatch", v, i)
				}
			}
		}
	})
}
