package embed

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/mpi"
)

// embedRun executes the parallel embedding at the given host width and
// flattens the result into one position per vertex plus the per-rank
// stats.
func embedRun(t *testing.T, g *gen.Generated, p, workers int, opt ParallelOptions) ([]geometry.Vec2, []mpi.RankStats) {
	t.Helper()
	out, stats := runEmbedAt(t, g, p, workers, opt)
	pos := make([]geometry.Vec2, g.G.NumVertices())
	for _, d := range out {
		for i, id := range d.OwnedIDs {
			pos[id] = d.OwnedPos[i]
		}
	}
	return pos, stats
}

// TestEmbedWorkerCountBitIdentical is the embedding worker-determinism
// regression: the hostpar kernels at worker counts 2 and 8 must produce
// exactly the coordinates and virtual clocks / traffic of a one-worker
// run. This pins the bit-identity discipline (static chunks, serial
// index-order reductions, serial tree build) for iterate, Smooth,
// computeCells, ghost packing/installation, and projectLevel.
func TestEmbedWorkerCountBitIdentical(t *testing.T) {
	g := gen.Grid2D(28, 28)
	opt := ParallelOptions{Seed: 9, IterCoarsest: 40, IterSmooth: 8}
	const p = 4

	refPos, refStats := embedRun(t, g, p, 1, opt)

	for _, workers := range []int{2, 8} {
		pos, stats := embedRun(t, g, p, workers, opt)
		for i := range refPos {
			if pos[i] != refPos[i] {
				t.Fatalf("workers=%d: vertex %d position %v, one worker %v", workers, i, pos[i], refPos[i])
			}
		}
		for r := range refStats {
			a, b := stats[r], refStats[r]
			if a.Time != b.Time || a.CommTime != b.CommTime ||
				a.Messages != b.Messages || a.BytesSent != b.BytesSent {
				t.Fatalf("workers=%d rank %d: stats %+v, one worker %+v", workers, r, a, b)
			}
		}
	}
}

// TestSequentialLayoutWorkerBitIdentical pins the sequential
// Barnes–Hut baseline: the force pass at any GOMAXPROCS (its width, as
// it runs outside any world) must reproduce the one-thread layout
// exactly (per-vertex forces from a read-only tree, energy reduced
// serially in vertex order).
func TestSequentialLayoutWorkerBitIdentical(t *testing.T) {
	g := gen.Grid2D(24, 24)
	opt := SeqOptions{Seed: 5, IterCoarsest: 40, IterSmooth: 10}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ref := SequentialLayout(g.G, opt)

	for _, workers := range []int{2, 8} {
		runtime.GOMAXPROCS(workers)
		got := SequentialLayout(g.G, opt)
		for v := range ref {
			if got[v] != ref[v] {
				t.Fatalf("workers=%d: vertex %d at %v, one worker %v", workers, v, got[v], ref[v])
			}
		}
	}
}

// TestSmoothSteadyStateAllocsWorkers re-runs the steady-state
// allocation guard with the hostpar kernels on and 8 workers: pooled
// jobs and pre-bound chunk bodies must keep the smoothing loop at the
// PR 2 allocation level even when every pass is submitted to the pool.
func TestSmoothSteadyStateAllocsWorkers(t *testing.T) {
	const (
		p      = 4
		bs     = 4
		blocks = 20
	)
	g := gen.Grid2D(48, 48)
	var perBlock float64
	m := mpi.DefaultModel()
	m.Workers = 8
	mpi.Run(p, m, func(c *mpi.Comm) {
		st := benchLevelState(c, g, 7)
		st.Smooth(4*bs, bs) // warm scratch buffers, pools, and workers
		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		st.Smooth(blocks*bs, bs)
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perBlock = float64(m1.Mallocs-m0.Mallocs) / blocks
		}
		c.Barrier()
	})
	if perBlock > 130 {
		t.Errorf("steady-state Smooth with 8 workers: %.1f mallocs per block (world-wide), want well under 130", perBlock)
	}
	t.Logf("steady-state Smooth with 8 workers: %.1f mallocs per block across %d ranks", perBlock, p)
}

// benchWorkerSweep runs fn once per host width, handing it the default
// model at that width.
func benchWorkerSweep(b *testing.B, fn func(b *testing.B, m mpi.Model)) {
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := mpi.DefaultModel()
			m.Workers = workers
			fn(b, m)
		})
	}
}

// BenchmarkIterate measures one force iteration of the fixed-lattice
// scheme (rank aggregates, inherited far field, Barnes–Hut near field,
// attraction, displacement) at P=4, swept over host worker counts.
func BenchmarkIterate(b *testing.B) {
	benchWorkerSweep(b, func(b *testing.B, m mpi.Model) {
		const p = 4
		g := gen.Grid2D(64, 64)
		b.ReportAllocs()
		mpi.Run(p, m, func(c *mpi.Comm) {
			st := benchLevelState(c, g, 7)
			st.Smooth(4, 4) // warm scratch, pools, and ghost state
			c.Barrier()
			if c.Rank() == 0 {
				b.ResetTimer()
			}
			c.Barrier()
			for i := 0; i < b.N; i++ {
				st.iterate()
			}
			c.Barrier()
			if c.Rank() == 0 {
				b.StopTimer()
			}
		})
	})
}

// BenchmarkSmoothWorkers is BenchmarkSmooth swept over worker counts:
// two full staleness blocks per op, including the block-boundary
// collectives.
func BenchmarkSmoothWorkers(b *testing.B) {
	benchWorkerSweep(b, func(b *testing.B, m mpi.Model) {
		const (
			p  = 4
			bs = 4
		)
		g := gen.Grid2D(64, 64)
		b.ReportAllocs()
		mpi.Run(p, m, func(c *mpi.Comm) {
			st := benchLevelState(c, g, 7)
			st.Smooth(2*bs, bs)
			c.Barrier()
			if c.Rank() == 0 {
				b.ResetTimer()
			}
			c.Barrier()
			for i := 0; i < b.N; i++ {
				st.Smooth(2*bs, bs)
			}
			c.Barrier()
			if c.Rank() == 0 {
				b.StopTimer()
			}
		})
	})
}

// BenchmarkParallelEmbed measures the full multilevel embedding
// (hierarchy reuse, per-level smoothing, projection, routing) at P=4,
// swept over host worker counts.
func BenchmarkParallelEmbed(b *testing.B) {
	benchWorkerSweep(b, func(b *testing.B, m mpi.Model) {
		const p = 4
		g := gen.Grid2D(48, 48)
		h := buildBenchHierarchy(g, p)
		opt := ParallelOptions{Seed: 7, IterCoarsest: 60, IterSmooth: 10}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mpi.Run(p, m, func(c *mpi.Comm) {
				ParallelEmbed(c, h, opt)
			})
		}
	})
}
