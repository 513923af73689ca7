package refine

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// boundaryRecords extracts the full-cut record set of a partition the
// way the distributed driver does: every vertex incident to a cut edge
// is free, every same-side neighbour of a free vertex is a locked ring
// record.
func boundaryRecords(t testing.TB, g *graph.Graph, side []int8) []SideRecord {
	t.Helper()
	cur := graph.GetCursor(g)
	defer cur.Release()
	n := g.NumVertices()
	isB := make([]bool, n)
	for v := 0; v < n; v++ {
		nbrs, _ := cur.Arcs(int32(v))
		for _, nb := range nbrs {
			if side[nb] != side[v] {
				isB[v] = true
				break
			}
		}
	}
	var recs []SideRecord
	for v := 0; v < n; v++ {
		if isB[v] {
			recs = append(recs, SideRecord{ID: int32(v), Side: side[v], Free: true})
			continue
		}
		nbrs, _ := cur.Arcs(int32(v))
		for _, nb := range nbrs {
			if isB[nb] {
				recs = append(recs, SideRecord{ID: int32(v), Side: side[v]})
				break
			}
		}
	}
	return recs
}

func sideWeights(g *graph.Graph, side []int8) [2]int64 {
	var w [2]int64
	for v, s := range side {
		w[s] += int64(g.VertexWeight(int32(v)))
	}
	return w
}

// TestSolveFreeSetImprovesNoisyCut: freeing only the boundary must
// still repair a noisy grid bisection, and the reported gain must be
// the true cut delta once the flips are applied.
func TestSolveFreeSetImprovesNoisyCut(t *testing.T) {
	gr := gen.Grid2D(24, 24)
	side := noisyBisection(gr.G, 24, 0.05, 3)
	before := cutOf(gr.G, side)
	sideW := sideWeights(gr.G, side)
	out := SolveFreeSet(gr.G, boundaryRecords(t, gr.G, side), sideW, sideW[0]+sideW[1], 0.03, 8)
	if out.Gain <= 0 {
		t.Fatalf("boundary FM found no improvement on a noisy cut (gain %d)", out.Gain)
	}
	for _, id := range out.Flips {
		side[id] = 1 - side[id]
	}
	after := cutOf(gr.G, side)
	if before-after != out.Gain {
		t.Fatalf("gain %d but cut went %d -> %d", out.Gain, before, after)
	}
	if got := sideWeights(gr.G, side); got != out.SideW {
		t.Fatalf("reported SideW %v, recomputed %v", out.SideW, got)
	}
	limit := int64(float64(sideW[0]+sideW[1]) * 1.03 / 2)
	if out.SideW[0] > limit || out.SideW[1] > limit {
		t.Fatalf("balance violated: %v (limit %d)", out.SideW, limit)
	}
}

// TestSolveFreeSetEmptyBoundary: an empty record set and an
// all-locked record set (the all-ghost-boundary case: every local
// vertex is ring, the free vertices live on other ranks) must return
// zero results without allocating.
func TestSolveFreeSetEmptyBoundary(t *testing.T) {
	gr := gen.Grid2D(8, 8)
	locked := []SideRecord{{ID: 0, Side: 0}, {ID: 1, Side: 0}, {ID: 8, Side: 1}}
	for name, recs := range map[string][]SideRecord{"nil": nil, "all-locked": locked} {
		out := SolveFreeSet(gr.G, recs, [2]int64{32, 32}, 64, 0.05, 4)
		if out.Gain != 0 || out.Free != 0 || len(out.Flips) != 0 {
			t.Fatalf("%s: non-empty result %+v", name, out)
		}
		if out.SideW != [2]int64{32, 32} {
			t.Fatalf("%s: side weights not passed through: %v", name, out.SideW)
		}
	}
	if allocs := testing.AllocsPerRun(50, func() {
		SolveFreeSet(gr.G, locked, [2]int64{32, 32}, 64, 0.05, 4)
	}); allocs != 0 {
		t.Fatalf("free-less SolveFreeSet allocates %v times per call, want 0", allocs)
	}
}

// TestBuildSubproblemEmptyFree: the empty free set returns a runnable
// zero-vertex problem with only the Problem header allocation — no
// map, cursor, or backing arrays.
func TestBuildSubproblemEmptyFree(t *testing.T) {
	gr := gen.Grid2D(8, 8)
	prob, ids := BuildSubproblem(gr.G, nil, func(int32) int8 { return 0 }, [2]int64{32, 32}, 64, 0.05, 4)
	if ids != nil {
		t.Fatalf("empty free set returned ids %v", ids)
	}
	if got := prob.Run(); got != 0 {
		t.Fatalf("empty problem produced gain %d", got)
	}
	if prob.SideW != [2]int64{32, 32} || prob.TotalW != 64 {
		t.Fatalf("bookkeeping not carried: %+v", prob)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		BuildSubproblem(gr.G, nil, nil, [2]int64{32, 32}, 64, 0.05, 4)
	}); allocs > 1 {
		t.Fatalf("empty BuildSubproblem allocates %v times per call, want <= 1 (the Problem header)", allocs)
	}
}

// TestSolveFreeSetAllExternal: a free set whose vertices have no free
// neighbours at all — every arc folds into Ext — exercises the
// terminal-weights-only path end to end.
func TestSolveFreeSetAllExternal(t *testing.T) {
	// Path 0-1-2 with vertex 1 stranded on side 1; 0 and 2 locked on 0.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	recs := []SideRecord{
		{ID: 0, Side: 0},
		{ID: 1, Side: 1, Free: true},
		{ID: 2, Side: 0},
	}
	out := SolveFreeSet(g, recs, [2]int64{2, 1}, 3, 1.0, 4)
	if out.Gain != 2 || len(out.Flips) != 1 || out.Flips[0] != 1 {
		t.Fatalf("stranded vertex not repatriated: %+v", out)
	}
	if out.SideW != [2]int64{3, 0} {
		t.Fatalf("side weights %v, want [3 0]", out.SideW)
	}
}

// BenchmarkBoundaryFM measures one full-cut boundary solve on a noisy
// grid bisection — the rank-0 kernel of the distributed full-cut pass.
func BenchmarkBoundaryFM(b *testing.B) {
	gr := gen.Grid2D(96, 96)
	side := noisyBisection(gr.G, 96, 0.04, 11)
	recs := boundaryRecords(b, gr.G, side)
	sideW := sideWeights(gr.G, side)
	total := sideW[0] + sideW[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := SolveFreeSet(gr.G, recs, sideW, total, 0.03, 4)
		if out.Gain <= 0 {
			b.Fatal("boundary FM found no improvement")
		}
	}
}
