package coarsen

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
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
