package graph

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// randomBuilder fills a builder with a reproducible edge soup:
// duplicates, weight accumulation, self-loops, and (optionally) vertex
// weights — every deduplication path the serial builder handles.
func randomBuilder(n, records int, weighted bool, seed int64) *Builder {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < records; i++ {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		w := int32(1)
		if weighted {
			w = int32(rng.Intn(9) + 1)
		}
		b.AddWeightedEdge(u, v, w)
	}
	if weighted {
		for v := 0; v < n; v += 3 {
			b.SetVertexWeight(int32(v), int32(rng.Intn(100)))
		}
	}
	return b
}

// buildSerial is the original global sort-and-merge build, kept
// verbatim as the oracle the bucket build is tested against.
func (b *Builder) buildSerial() *Graph {
	// Sort edge records by (u, v) to merge duplicates.
	idx := make([]int32, len(b.us))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.Slice(idx, func(i, j int) bool {
		a, c := idx[i], idx[j]
		if b.us[a] != b.us[c] {
			return b.us[a] < b.us[c]
		}
		return b.vs[a] < b.vs[c]
	})
	type rec struct {
		u, v, w int32
	}
	merged := make([]rec, 0, len(idx))
	for _, k := range idx {
		u, v, w := b.us[k], b.vs[k], b.ws[k]
		if len(merged) > 0 && merged[len(merged)-1].u == u && merged[len(merged)-1].v == v {
			merged[len(merged)-1].w += w
			continue
		}
		merged = append(merged, rec{u, v, w})
	}
	// Count degrees (each undirected edge contributes to both rows).
	xadj := make([]int32, b.n+1)
	for _, e := range merged {
		xadj[e.u+1]++
		xadj[e.v+1]++
	}
	for i := 0; i < b.n; i++ {
		xadj[i+1] += xadj[i]
	}
	adj := make([]int32, xadj[b.n])
	var ewgt []int32
	weighted := b.wsAny
	if !weighted {
		// Duplicate merging may have produced non-unit weights.
		for _, e := range merged {
			if e.w != 1 {
				weighted = true
				break
			}
		}
	}
	if weighted {
		ewgt = make([]int32, len(adj))
	}
	cursor := append([]int32(nil), xadj[:b.n]...)
	for _, e := range merged {
		adj[cursor[e.u]] = e.v
		if weighted {
			ewgt[cursor[e.u]] = e.w
		}
		cursor[e.u]++
		adj[cursor[e.v]] = e.u
		if weighted {
			ewgt[cursor[e.v]] = e.w
		}
		cursor[e.v]++
	}
	g := &Graph{XAdj: xadj, Adjncy: adj, EWgt: ewgt}
	if b.vwgt != nil {
		g.VWgt = append([]int32(nil), b.vwgt...)
	}
	return g
}

func graphsEqual(t *testing.T, tag string, a, b *Graph) {
	t.Helper()
	if !int32SlicesEqual(a.XAdj, b.XAdj) {
		t.Fatalf("%s: XAdj differs", tag)
	}
	if !int32SlicesEqual(a.Adjncy, b.Adjncy) {
		t.Fatalf("%s: Adjncy differs", tag)
	}
	if (a.EWgt == nil) != (b.EWgt == nil) || !int32SlicesEqual(a.EWgt, b.EWgt) {
		t.Fatalf("%s: EWgt differs (nil-ness %v vs %v)", tag, a.EWgt == nil, b.EWgt == nil)
	}
	if (a.VWgt == nil) != (b.VWgt == nil) || !int32SlicesEqual(a.VWgt, b.VWgt) {
		t.Fatalf("%s: VWgt differs", tag)
	}
}

func int32SlicesEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestParallelBuildBitIdentical compares the bucket build against the
// global sort-and-merge oracle on dense, sparse, weighted, and
// unweighted inputs across worker counts — CSR arrays, weight arrays,
// and weightedness detection must agree bit-for-bit.
func TestParallelBuildBitIdentical(t *testing.T) {
	cases := []struct {
		n, records int
		weighted   bool
	}{
		{1, 10, false},
		{13, 40, true},
		{500, 3000, false},
		{500, 3000, true},
		{4096, 50000, true},
		{4096, 50000, false},
		{30, 5000, true}, // heavy duplication: every pair merged many times
	}
	for ci, tc := range cases {
		b := randomBuilder(tc.n, tc.records, tc.weighted, int64(1000+ci))
		want := b.buildSerial()
		for _, w := range []int{1, 2, 8} {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
			got := b.Build()
			graphsEqual(t, fmt.Sprintf("case %d workers %d", ci, w), want, got)
		}
	}
}

// TestParallelBuildUnitWeightMergeStaysWeighted: two unit-weight
// records of the same edge merge to weight 2, which must flip the graph
// to weighted on both paths.
func TestParallelBuildUnitWeightMergeStaysWeighted(t *testing.T) {
	mk := func() *Builder {
		b := NewBuilder(4)
		b.AddEdge(0, 1)
		b.AddEdge(1, 0)
		b.AddEdge(2, 3)
		return b
	}
	want := mk().buildSerial()
	got := mk().Build()
	if want.EWgt == nil || got.EWgt == nil {
		t.Fatalf("merged duplicate should force weights: oracle nil=%v bucket nil=%v", want.EWgt == nil, got.EWgt == nil)
	}
	graphsEqual(t, "unit merge", want, got)
}

// TestParallelBuildSteadyStateAllocs guards the parallel builder's
// allocation budget: with the scratch pool warm, a Build call may
// allocate only its output arrays (XAdj, Adjncy, EWgt, VWgt) plus
// small fixed bookkeeping — not the O(E) working set.
func TestParallelBuildSteadyStateAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	b := randomBuilder(2000, 20000, true, 7)
	for i := 0; i < 3; i++ {
		b.Build() // warm the scratch pool
	}
	const calls = 10
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		b.Build()
	}
	runtime.ReadMemStats(&m1)
	perCall := float64(m1.Mallocs-m0.Mallocs) / calls
	// 4 output arrays + per-chunk task closures and waiters; the O(E)
	// arc buffer and offset arrays must come from the pool.
	if perCall > 64 {
		t.Errorf("steady-state parallel Build: %.0f mallocs per call, want well under 64", perCall)
	}
	t.Logf("steady-state parallel Build: %.1f mallocs per call", perCall)
}

// BenchmarkBuilderBuild measures CSR assembly on the bucket path.
func BenchmarkBuilderBuild(b *testing.B) {
	bld := randomBuilder(1<<17, 1<<20, false, 11)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := bld.Build()
		if g.NumVertices() != 1<<17 {
			b.Fatal("bad build")
		}
	}
}
