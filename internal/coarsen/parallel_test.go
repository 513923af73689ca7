package coarsen

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// contractBlockedSerial is the original single-threaded contraction,
// kept verbatim as the oracle the fork-join kernel is tested against.
func contractBlockedSerial(g *graph.Graph, match []int32, offsets []int32) (*graph.Graph, []int32, []int32) {
	n := g.NumVertices()
	blocks := len(offsets) - 1
	fineToCoarse := make([]int32, n)
	for i := range fineToCoarse {
		fineToCoarse[i] = -1
	}
	perBlock := make([]int32, blocks)
	next := int32(0)
	for blk := 0; blk < blocks; blk++ {
		start := next
		for v := offsets[blk]; v < offsets[blk+1]; v++ {
			if fineToCoarse[v] >= 0 {
				continue
			}
			u := match[v]
			fineToCoarse[v] = next
			fineToCoarse[u] = next
			next++
		}
		perBlock[blk] = next - start
	}
	b := graph.NewBuilder(int(next))
	cw := make([]int32, next)
	for v := int32(0); v < int32(n); v++ {
		cw[fineToCoarse[v]] += g.VertexWeight(v)
	}
	for cv, w := range cw {
		b.SetVertexWeight(int32(cv), w)
	}
	cur := graph.GetCursor(g)
	defer cur.Release()
	for u := int32(0); u < int32(n); u++ {
		cu := fineToCoarse[u]
		nbrs, wgts := cur.Arcs(u)
		for k, v := range nbrs {
			cv := fineToCoarse[v]
			if cu < cv {
				b.AddWeightedEdge(cu, cv, wgts[k])
			}
		}
	}
	return b.Build(), fineToCoarse, perBlock
}

// invertMapSerial is the original cursor-scan inversion, kept verbatim
// as the oracle the chunked counting sort is tested against.
func invertMapSerial(toCoarse []int32, nCoarse int) (offsets, children []int32) {
	offsets = make([]int32, nCoarse+1)
	for _, cv := range toCoarse {
		offsets[cv+1]++
	}
	for i := 0; i < nCoarse; i++ {
		offsets[i+1] += offsets[i]
	}
	children = make([]int32, len(toCoarse))
	cursor := append([]int32(nil), offsets[:nCoarse]...)
	for v, cv := range toCoarse {
		children[cursor[cv]] = int32(v)
		cursor[cv]++
	}
	return offsets, children
}

func levelsEqual(t *testing.T, tag string, a, b *Hierarchy) {
	t.Helper()
	if len(a.Levels) != len(b.Levels) {
		t.Fatalf("%s: %d levels vs %d", tag, len(a.Levels), len(b.Levels))
	}
	eq := func(name string, x, y []int32, li int) {
		if len(x) != len(y) {
			t.Fatalf("%s level %d: %s length %d vs %d", tag, li, name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s level %d: %s[%d] = %d vs %d", tag, li, name, i, x[i], y[i])
			}
		}
	}
	for li := range a.Levels {
		la, lb := &a.Levels[li], &b.Levels[li]
		if la.Ranks != lb.Ranks {
			t.Fatalf("%s level %d: ranks %d vs %d", tag, li, la.Ranks, lb.Ranks)
		}
		if (la.G.EWgt == nil) != (lb.G.EWgt == nil) {
			t.Fatalf("%s level %d: EWgt nil-ness %v vs %v", tag, li, la.G.EWgt == nil, lb.G.EWgt == nil)
		}
		if (la.G.VWgt == nil) != (lb.G.VWgt == nil) {
			t.Fatalf("%s level %d: VWgt nil-ness %v vs %v", tag, li, la.G.VWgt == nil, lb.G.VWgt == nil)
		}
		eq("XAdj", la.G.XAdj, lb.G.XAdj, li)
		eq("Adjncy", la.G.Adjncy, lb.G.Adjncy, li)
		eq("EWgt", la.G.EWgt, lb.G.EWgt, li)
		eq("VWgt", la.G.VWgt, lb.G.VWgt, li)
		eq("Offsets", la.Offsets, lb.Offsets, li)
		eq("ToCoarse", la.ToCoarse, lb.ToCoarse, li)
		eq("ChildOffsets", la.ChildOffsets, lb.ChildOffsets, li)
		eq("Children", la.Children, lb.Children, li)
	}
}

// TestContractParallelMatchesSerial cross-checks the fork-join
// contraction against the serial reference on structured, irregular,
// and weighted graphs with randomized matchings and multi-block
// ownership.
func TestContractParallelMatchesSerial(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Grid2D(37, 23).G,
		gen.DelaunayRandom(3000, 9).G,
		gen.BarabasiAlbert(2000, 3, 5),
	}
	// A weighted variant: contract once so vertex and edge weights are
	// non-trivial.
	{
		g := gen.Grid2D(40, 40).G
		rng := rand.New(rand.NewSource(3))
		m := HeavyEdgeMatch(g, rng, nil)
		cg, _ := Contract(g, m)
		graphs = append(graphs, cg)
	}
	for gi, g := range graphs {
		n := g.NumVertices()
		for _, blocks := range []int{1, 4, 7} {
			offsets := blockOffsets(n, blocks)
			rng := rand.New(rand.NewSource(int64(17 + gi)))
			match := HeavyEdgeMatch(g, rng, nil)
			wantG, wantF2C, wantPB := contractBlockedSerial(g, match, offsets)
			for _, w := range []int{1, 2, 8} {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
				gotG, gotF2C, gotPB := contractBlocked(g, match, offsets)
				tag := fmt.Sprintf("graph %d blocks %d workers %d", gi, blocks, w)
				wantH := &Hierarchy{Levels: []Level{{G: wantG, Offsets: prefixSum(wantPB), ToCoarse: wantF2C}}}
				gotH := &Hierarchy{Levels: []Level{{G: gotG, Offsets: prefixSum(gotPB), ToCoarse: gotF2C}}}
				levelsEqual(t, tag, wantH, gotH)
			}
		}
	}
}

// TestInvertMapParallelMatchesSerial: the chunked counting sort must
// reproduce the serial cursor scan exactly, including child order.
func TestInvertMapParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 100, 50000} {
		nCoarse := n/3 + 1
		toCoarse := make([]int32, n)
		for i := range toCoarse {
			toCoarse[i] = int32(rng.Intn(nCoarse))
		}
		wantOff, wantCh := invertMapSerial(toCoarse, nCoarse)
		for _, w := range []int{1, 2, 8} {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			gotOff, gotCh := invertMap(toCoarse, nCoarse)
			for i := range wantOff {
				if wantOff[i] != gotOff[i] {
					t.Fatalf("n=%d workers=%d: offsets[%d] = %d, want %d", n, w, i, gotOff[i], wantOff[i])
				}
			}
			for i := range wantCh {
				if wantCh[i] != gotCh[i] {
					t.Fatalf("n=%d workers=%d: children[%d] = %d, want %d", n, w, i, gotCh[i], wantCh[i])
				}
			}
		}
	}
}

// TestBuildHierarchyBitIdenticalAcrossWorkers is the package-local
// hierarchy determinism check: every retained level's CSR arrays,
// ownership offsets, and projection maps must agree bit-for-bit at
// GOMAXPROCS 1, 2, and 8 (the width of a hierarchy build, which runs
// outside any world), with the single-chunk run as the reference.
// The full-pipeline version (cuts, clocks, traffic) lives in
// internal/core's TestHierarchyBitIdentical.
func TestBuildHierarchyBitIdenticalAcrossWorkers(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Grid2D(64, 64).G,
		gen.DelaunayRandom(6000, 12).G,
		gen.BarabasiAlbert(4000, 2, 77),
	}
	for gi, g := range graphs {
		for _, p := range []int{1, 4, 16, 64} {
			opt := Options{Seed: 42, VertsPerRank: 96}
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			want := BuildHierarchy(g, p, opt)
			for _, w := range []int{2, 8} {
				runtime.GOMAXPROCS(w)
				got := BuildHierarchy(g, p, opt)
				levelsEqual(t, fmt.Sprintf("graph %d P=%d workers=%d", gi, p, w), want, got)
			}
		}
	}
}

// TestBoundaryEdgesParallelMatchesSerial compares the pooled per-rank
// scan against a straightforward serial recount.
func TestBoundaryEdgesParallelMatchesSerial(t *testing.T) {
	g := gen.DelaunayRandom(4000, 4).G
	h := BuildHierarchy(g, 16, Options{Seed: 7})
	for _, w := range []int{1, 8} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
		got := BoundaryEdges(h)
		for li := range h.Levels {
			lev := &h.Levels[li]
			for r := 0; r < lev.Ranks; r++ {
				begin, end := lev.Offsets[r], lev.Offsets[r+1]
				var want int64
				for v := begin; v < end; v++ {
					for _, nb := range lev.G.Neighbors(v) {
						if nb < begin || nb >= end {
							want++
						}
					}
				}
				if got[li][r] != want {
					t.Fatalf("workers=%d level %d rank %d: %d boundary edges, want %d", w, li, r, got[li][r], want)
				}
			}
		}
	}
}

// TestContractionSteadyStateAllocs guards the contraction kernel's
// pooled scratch: repeated contractions of the same graph at width 2
// must not reallocate the per-chunk row and output buffers. It counts
// mallocs itself: testing.AllocsPerRun runs at GOMAXPROCS 1, which is
// the one-chunk path.
func TestContractionSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := gen.Grid2D(80, 80).G
	rng := rand.New(rand.NewSource(1))
	match := HeavyEdgeMatch(g, rng, nil)
	offsets := blockOffsets(g.NumVertices(), 4)
	for i := 0; i < 3; i++ {
		contractBlocked(g, match, offsets) // warm pools
	}
	const calls = 10
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		contractBlocked(g, match, offsets)
	}
	runtime.ReadMemStats(&m1)
	perCall := float64(m1.Mallocs-m0.Mallocs) / calls
	// Outputs (CSR arrays, maps, per-block counts) plus fixed
	// bookkeeping; the per-chunk sort scratch must come from the pool.
	if perCall > 96 {
		t.Errorf("steady-state parallel contraction: %.0f mallocs per call, want well under 96", perCall)
	}
	t.Logf("steady-state parallel contraction: %.1f mallocs per call", perCall)
}

// BenchmarkBuildHierarchy measures full hierarchy construction on a
// suite-scale grid and a preferential-attachment graph.
func BenchmarkBuildHierarchy(b *testing.B) {
	shapes := []struct {
		name  string
		build func() *graph.Graph
	}{
		{"grid256", func() *graph.Graph { return gen.Grid2D(256, 256).G }},
		{"ba50k", func() *graph.Graph { return gen.BarabasiAlbert(50000, 3, 9) }},
	}
	for _, sh := range shapes {
		g := sh.build()
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				h := BuildHierarchy(g, 64, Options{Seed: 42, VertsPerRank: 96})
				if len(h.Levels) < 2 {
					b.Fatal("degenerate hierarchy")
				}
			}
		})
	}
}
