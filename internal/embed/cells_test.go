package embed

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/mpi"
)

// TestChunkCap pins the nesting rule of the per-rank kernels: a rank
// forks only onto the workers its level's other ranks leave idle, and
// always runs at least one chunk.
func TestChunkCap(t *testing.T) {
	cases := []struct{ workers, ranks, want int }{
		{1, 1, 1},
		{2, 1, 2},
		{2, 2, 1},
		{2, 1024, 1},
		{8, 1, 8},
		{8, 2, 4},
		{8, 3, 2},
		{8, 4, 2},
		{8, 5, 1},
		{8, 64, 1},
		{8, 0, 8},
		{0, 4, 1},
	}
	for _, c := range cases {
		if got := chunkCap(c.workers, c.ranks); got != c.want {
			t.Errorf("chunkCap(%d workers, %d ranks) = %d, want %d", c.workers, c.ranks, got, c.want)
		}
	}
	if got := levelChunks(8, 2, 1<<20, 1); got != 4 {
		t.Errorf("levelChunks at 8 workers, 2 ranks: %d chunks, want 4", got)
	}
	if got := levelChunks(8, 1, 64, 32); got != 2 {
		t.Errorf("levelChunks at 8 workers, 1 rank, 64 items of grain 32: %d chunks, want 2", got)
	}
}

// TestCellAggregateWorkLinear: the box aggregates a level evaluates per
// staleness block, world-wide, are O(P) — P once in the block's gather,
// plus at most one per grid neighbour per rank per iteration — where
// computing every remote rank's aggregate on every rank each iteration
// was P² per iteration.
func TestCellAggregateWorkLinear(t *testing.T) {
	const (
		bs    = 4
		iters = 3 * bs
	)
	g := gen.Grid2D(32, 32)
	for _, p := range []int{64, 256, 1024} {
		evals := make([]int, p)
		blocks := make([]*cellBlock, p)
		mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
			st := benchLevelState(c, g, 7)
			st.Smooth(iters, bs)
			if got, want := st.aggEvals, len(st.nbrs)*iters; got != want {
				t.Errorf("P=%d rank %d: %d aggregates over %d iterations with %d neighbours, want %d", p, c.Rank(), got, iters, len(st.nbrs), want)
			}
			evals[c.Rank()] = st.aggEvals
			blocks[c.Rank()] = st.block
		})
		if len(blocks[0].aggs) != p {
			t.Fatalf("P=%d: the block's gather derived %d aggregates", p, len(blocks[0].aggs))
		}
		for r, b := range blocks {
			if b != blocks[0] {
				t.Fatalf("P=%d: rank %d holds a block of its own", p, r)
			}
		}
		total := iters / bs * p // one derive per block
		for _, e := range evals {
			total += e
		}
		perBlock := total / (iters / bs)
		if limit := p * (1 + 4*bs); perBlock > limit {
			t.Errorf("P=%d: %d aggregates per block, want at most %d = P·(1+4·blockSize)", p, perBlock, limit)
		}
		t.Logf("P=%d: %d aggregates per block (%.1f per rank); every rank every iteration would be %d", p, perBlock, float64(perBlock)/float64(p), (p-1)*p*bs)
	}
}
