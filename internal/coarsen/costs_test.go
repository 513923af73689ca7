package coarsen

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/trace"
)

func TestBoundaryEdgesCountsHalo(t *testing.T) {
	g := gen.Grid2D(10, 10).G
	h := BuildHierarchy(g, 4, Options{Seed: 1})
	b := BoundaryEdges(h)
	if len(b) != len(h.Levels) {
		t.Fatalf("%d entries for %d levels", len(b), len(h.Levels))
	}
	// Cross-check level 0 against a direct recount.
	lev := h.Levels[0]
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
		if b[0][r] != want {
			t.Fatalf("rank %d: halo %d, want %d", r, b[0][r], want)
		}
		if want == 0 {
			t.Fatalf("rank %d: zero halo on a connected grid", r)
		}
	}
}

func TestChargeCostsAdvancesClocks(t *testing.T) {
	g := gen.DelaunayRandom(3000, 2).G
	h := BuildHierarchy(g, 8, Options{Seed: 3})
	b := BoundaryEdges(h)
	stats := mpi.Run(8, mpi.DefaultModel(), func(c *mpi.Comm) {
		ChargeCosts(c, h, b, 4, 2)
	})
	for _, s := range stats {
		if s.Time <= 0 {
			t.Fatalf("rank %d: no cost charged", s.Rank)
		}
		if s.CommTime <= 0 || s.CommTime > s.Time {
			t.Fatalf("rank %d: comm %v of %v", s.Rank, s.CommTime, s.Time)
		}
	}
	// Deterministic.
	again := mpi.Run(8, mpi.DefaultModel(), func(c *mpi.Comm) {
		ChargeCosts(c, h, b, 4, 2)
	})
	for r := range stats {
		if stats[r].Time != again[r].Time {
			t.Fatalf("rank %d: nondeterministic charge", r)
		}
	}
}

func TestMergeOffsets(t *testing.T) {
	off := []int32{0, 2, 5, 9, 12}
	merged := mergeOffsets(off, 2)
	if len(merged) != 3 || merged[0] != 0 || merged[1] != 5 || merged[2] != 12 {
		t.Fatalf("merged = %v", merged)
	}
	if got := mergeOffsets(off, 8); len(got) != len(off) {
		t.Fatal("growing rank count should keep offsets")
	}
}

// TestCostCompositionsBitExact holds the negotiation and contraction
// charges of ChargeCosts to the open-coded expressions they replaced:
// each SyncCost must charge exactly the reference total and record
// exactly its ts/tw/to terms, for every communicator size up to 4096
// and a spread of contraction payloads. The model constants are read
// through variables, as ChargeCosts reads them.
func TestCostCompositionsBitExact(t *testing.T) {
	models := []mpi.Model{mpi.DefaultModel(), {Latency: 7.3e-6, PerByte: 1.7e-9, PerPeer: 0.9e-6}}
	for _, m := range models {
		var want [][4]float64
		rec := trace.New()
		traced := m
		traced.Trace = rec
		mpi.Run(1, traced, func(c *mpi.Comm) {
			for p := 1; p <= 4096; p++ {
				lg := mpi.Log2Ceil(p)
				c.SyncCost(negotiationCost(&m, p))
				want = append(want, [4]float64{
					m.Latency*lg + (m.PerByte*4+m.PerPeer)*float64(p),
					m.Latency * lg, m.PerByte * 4 * float64(p), m.PerPeer * float64(p)})
				for _, b := range []int{0, 8, 12, 100, 4096, 123457, 1 << 24} {
					c.SyncCost(contractionCost(&m, p, b))
					want = append(want, [4]float64{
						m.Latency*lg + m.PerByte*float64(b), m.Latency * lg, m.PerByte * float64(b), 0})
				}
			}
		})
		var got [][4]float64
		for _, ev := range rec.Ranks()[0].Events() {
			if ev.Kind == trace.KindColl {
				got = append(got, [4]float64{ev.Comm, ev.TS, ev.TW, ev.TO})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("recorded %d charges, want %d", len(got), len(want))
		}
		for i := range want {
			for k := range want[i] {
				if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
					t.Fatalf("model %+v charge %d: got total/ts/tw/to %v, want %v", m, i, got[i], want[i])
				}
			}
		}
	}
}
