package geopart

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/refine"
)

// runSP runs one SP-PG7-NL bisection world under the given model and
// returns the assembled global part vector plus rank 0's result.
func runSP(g *gen.Generated, p int, cfg ParallelConfig, m mpi.Model) ([]int32, *ParallelResult) {
	views := embed.SplitCoords(g.G, g.Coords, p)
	part := make([]int32, g.G.NumVertices())
	var r0 *ParallelResult
	mpi.Run(p, m, func(c *mpi.Comm) {
		res := ParallelPartition(c, g.G, views[c.Rank()], cfg)
		for i, id := range res.OwnedIDs {
			part[id] = res.Side[i]
		}
		if c.Rank() == 0 {
			r0 = res
		}
	})
	return part, r0
}

func globalCut(g *graph.Graph, part []int32) int64 {
	return graph.CutSize(g, part)
}

// fullCutConfig is SP-PG7-NL with the full-cut pass on at the round
// count -refine full selects.
func fullCutConfig() ParallelConfig {
	cfg := DefaultParallelConfig()
	cfg.FullCutRounds = FullRefineRounds
	return cfg
}

// TestFullCutImprovesOrKeepsCut: the full-cut pass must never worsen
// the strip-refined cut, its reported cut must match a from-scratch
// recount of the assembled partition, and the balance must stay inside
// the configured tolerance.
func TestFullCutImprovesOrKeepsCut(t *testing.T) {
	g := gen.DelaunayRandom(4000, 5)
	totalW := g.G.TotalVertexWeight()
	for _, p := range []int{1, 4, 16} {
		stripPart, stripRes := runSP(g, p, DefaultParallelConfig(), mpi.DefaultModel())
		fullPart, fullRes := runSP(g, p, fullCutConfig(), mpi.DefaultModel())

		if got := globalCut(g.G, stripPart); got != stripRes.Cut {
			t.Fatalf("P=%d strip: reported cut %d, recount %d", p, stripRes.Cut, got)
		}
		if got := globalCut(g.G, fullPart); got != fullRes.Cut {
			t.Fatalf("P=%d full: reported cut %d, recount %d", p, fullRes.Cut, got)
		}
		if fullRes.Cut > stripRes.Cut {
			t.Fatalf("P=%d: full-cut refinement worsened the cut: %d > %d", p, fullRes.Cut, stripRes.Cut)
		}
		tol := refine.BalanceTol
		limit := int64(float64(totalW) * (1 + tol) / 2)
		if fullRes.SideW[0] > limit || fullRes.SideW[1] > limit {
			t.Fatalf("P=%d: full-cut broke balance: %v (limit %d, tol %v)", p, fullRes.SideW, limit, tol)
		}
		var w [2]int64
		for v, s := range fullPart {
			w[s] += int64(g.G.VertexWeight(int32(v)))
		}
		if w != fullRes.SideW {
			t.Fatalf("P=%d: reported SideW %v, recomputed %v", p, fullRes.SideW, w)
		}
		t.Logf("P=%d: cut %d (strip) -> %d (full), boundary %d", p, stripRes.Cut, fullRes.Cut, fullRes.Boundary)
	}
}

// TestFullCutDeterministic: with full-cut on, the partition must be a
// pure function of (graph, config, P) — identical across repeated
// runs and host widths (Model.Workers).
func TestFullCutDeterministic(t *testing.T) {
	g := gen.DelaunayRandom(3000, 9)
	for _, p := range []int{1, 4, 16, 64} {
		var base []int32
		var baseCut int64
		for run, workers := range []int{1, 8, 8} {
			name := fmt.Sprintf("P=%d run %d workers=%d", p, run, workers)
			m := mpi.DefaultModel()
			m.Workers = workers
			part, res := runSP(g, p, fullCutConfig(), m)
			if base == nil {
				base, baseCut = part, res.Cut
				continue
			}
			if res.Cut != baseCut {
				t.Fatalf("%s: cut %d, want %d", name, res.Cut, baseCut)
			}
			for v := range part {
				if part[v] != base[v] {
					t.Fatalf("%s: vertex %d side %d, want %d", name, v, part[v], base[v])
				}
			}
		}
	}
}

// TestFullCutOffUnchanged: the pass off must leave the strip-only
// pipeline untouched — same parts, cuts, and virtual clocks as before
// this pass existed. (The bench-level seed-row guard pins the same
// thing against BENCH_7.json; this is the fast package-local check
// that Boundary stays zero and the clock carries no full-cut charges.)
func TestFullCutOffUnchanged(t *testing.T) {
	g := gen.Grid2D(48, 48)
	views := embed.SplitCoords(g.G, g.Coords, 4)
	var offClock, offCut = make([]float64, 4), int64(0)
	mpi.Run(4, mpi.DefaultModel(), func(c *mpi.Comm) {
		res := ParallelPartition(c, g.G, views[c.Rank()], DefaultParallelConfig())
		offClock[c.Rank()] = c.Elapsed()
		if c.Rank() == 0 {
			offCut = res.Cut
		}
		if res.Boundary != 0 {
			t.Errorf("rank %d: Boundary %d with full-cut off, want 0", c.Rank(), res.Boundary)
		}
	})
	// Re-run: the off path must be deterministic in results and clocks.
	mpi.Run(4, mpi.DefaultModel(), func(c *mpi.Comm) {
		res := ParallelPartition(c, g.G, views[c.Rank()], DefaultParallelConfig())
		if c.Elapsed() != offClock[c.Rank()] {
			t.Errorf("rank %d: clock %v, want %v", c.Rank(), c.Elapsed(), offClock[c.Rank()])
		}
		if c.Rank() == 0 && res.Cut != offCut {
			t.Errorf("cut %d, want %d", res.Cut, offCut)
		}
	})
}

// TestRefineFreeSetEmptyBoundaryWorld: a world where no rank frees any
// vertex must return the pass-through result on every rank without
// hanging (the early return happens after the gather collective, so it
// is globally consistent by construction).
func TestRefineFreeSetEmptyBoundaryWorld(t *testing.T) {
	g := gen.Grid2D(16, 16)
	const p = 4
	views := embed.SplitCoords(g.G, g.Coords, p)
	totalW := g.G.TotalVertexWeight()
	mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
		d := views[c.Rank()]
		side := make([]int32, len(d.OwnedIDs))
		free := make([]bool, len(d.OwnedIDs))
		out := RefineFreeSet(c, g.G, d, free, side, [2]int64{int64(totalW), 0}, totalW)
		if out.Gain != 0 || out.Free != 0 || len(out.Flips) != 0 {
			t.Errorf("rank %d: empty free set produced %+v", c.Rank(), out)
		}
		if out.SideW != [2]int64{int64(totalW), 0} {
			t.Errorf("rank %d: side weights not passed through: %v", c.Rank(), out.SideW)
		}
	})
}

// TestRefineFreeSetCrossRankRing fixes one global free mask, a
// ragged vertical band of a 32×32 grid around a jagged cut, and checks that
// RefineFreeSet's outcome (flips, gain, side weights, free count) and
// the sides it leaves are identical at P ∈ {1, 4, 16, 64}. At P > 1 the
// band and its locked ring cross rank borders, so a ring scan that
// missed free ghost neighbours would leave ring vertices out of the
// gather and change (or abort) the solve.
func TestRefineFreeSetCrossRankRing(t *testing.T) {
	g := gen.Grid2D(32, 32)
	n := g.G.NumVertices()
	totalW := g.G.TotalVertexWeight()
	sideOf := func(id int32) int32 {
		if p := g.Coords[id]; int(p.X)+int(p.Y)%3 >= 17 {
			return 1
		}
		return 0
	}
	var sideW [2]int64
	for v := int32(0); v < int32(n); v++ {
		sideW[sideOf(v)] += int64(g.G.VertexWeight(v))
	}
	var want refine.FreeSetResult
	var wantSide []int32
	for _, p := range []int{1, 4, 16, 64} {
		views := embed.SplitCoords(g.G, g.Coords, p)
		got := make([]int32, n)
		var out refine.FreeSetResult
		mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
			d := views[c.Rank()]
			side := make([]int32, len(d.OwnedIDs))
			free := make([]bool, len(d.OwnedIDs))
			for i, id := range d.OwnedIDs {
				side[i] = sideOf(id)
				x, y := int(g.Coords[id].X), int(g.Coords[id].Y)
				free[i] = x >= 12+y%4 && x <= 17+y%4
			}
			res := RefineFreeSet(c, g.G, d, free, side, sideW, totalW)
			for i, id := range d.OwnedIDs {
				got[id] = side[i]
			}
			if c.Rank() == 0 {
				out = res
			}
		})
		if p == 1 {
			if out.Gain <= 0 || out.Free != 6*32 {
				t.Fatalf("P=1: gain %d over %d free vertices, want a positive gain over %d", out.Gain, out.Free, 6*32)
			}
			want, wantSide = out, got
			continue
		}
		if !reflect.DeepEqual(out, want) {
			t.Errorf("P=%d: outcome %+v, want %+v", p, out, want)
		}
		if !slices.Equal(got, wantSide) {
			t.Errorf("P=%d: sides after the round differ from P=1", p)
		}
	}
}

// TestRCBModeledClockGolden pins ParallelRCB's Zoltan-faithful cost
// model (per-level median bisection search plus coordinate migration)
// and its partition: rank 0's modeled clock bits, the cut, the side
// weights and an FNV-1a hash of the assembled part vector, recorded on
// a 64×64 grid at P ∈ {1, 4, 16}. The cost model only adds charges, so
// a partition drift and a clock drift are reported separately.
func TestRCBModeledClockGolden(t *testing.T) {
	g := gen.Grid2D(64, 64)
	for _, tc := range []struct {
		p     int
		clock uint64
		cut   int64
		sideW [2]int64
		hash  uint64
	}{
		{1, 0x3f32aee02610a2f5, 65, [2]int64{2049, 2047}, 0x333ee857d66ee524},
		{4, 0x3f31d55fd95c8fbd, 65, [2]int64{2049, 2047}, 0x333ee857d66ee524},
		{16, 0x3f3b1a6b9bc46913, 65, [2]int64{2049, 2047}, 0x333ee857d66ee524},
	} {
		views := embed.SplitCoords(g.G, g.Coords, tc.p)
		part := make([]int32, g.G.NumVertices())
		var clock float64
		var r0 *ParallelResult
		mpi.Run(tc.p, mpi.DefaultModel(), func(c *mpi.Comm) {
			res := ParallelRCB(c, g.G, views[c.Rank()])
			for i, id := range res.OwnedIDs {
				part[id] = res.Side[i]
			}
			if c.Rank() == 0 {
				clock, r0 = c.Elapsed(), res
			}
		})
		h := fnv.New64a()
		binary.Write(h, binary.LittleEndian, part)
		if r0.Cut != tc.cut || r0.SideW != tc.sideW || h.Sum64() != tc.hash {
			t.Errorf("P=%d: partition drifted: cut %d sideW %v hash %#x, want %d %v %#x",
				tc.p, r0.Cut, r0.SideW, h.Sum64(), tc.cut, tc.sideW, tc.hash)
		}
		if math.Float64bits(clock) != tc.clock {
			t.Errorf("P=%d: modeled clock %v (%#x) drifted from %v",
				tc.p, clock, math.Float64bits(clock), math.Float64frombits(tc.clock))
		}
	}
}
