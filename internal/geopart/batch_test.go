package geopart

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/hostpar"
	"repro/internal/mpi"
)

// TestGatherSamplePinned pins the sampled (id, coordinate) sequence for
// a fixed distribution: the sample feeds centerpoints, thresholds, and
// strip widths, so a kernel change that silently alters it would shift
// every downstream cut. Any intentional change to the sampling scheme
// must update these literals consciously.
func TestGatherSamplePinned(t *testing.T) {
	want := []int32{0, 8, 16, 24, 4, 12, 20, 28, 32, 40, 48, 56, 36, 44, 52, 60}
	g := gen.Grid2D(8, 8)
	views := embed.SplitCoords(g.G, g.Coords, 4)
	mpi.Run(4, mpi.DefaultModel(), func(c *mpi.Comm) {
		s := gatherSample(c, views[c.Rank()], 16, func(s []sampleEntry) []sampleEntry { return s })
		if len(s) != len(want) {
			t.Errorf("rank %d: sample has %d entries, want %d", c.Rank(), len(s), len(want))
			return
		}
		for i, e := range s {
			if e.ID != want[i] {
				t.Errorf("rank %d: sample[%d].ID = %d, want %d", c.Rank(), i, e.ID, want[i])
				return
			}
			if e.P != g.Coords[e.ID] {
				t.Errorf("rank %d: sample[%d] carries stale coordinate", c.Rank(), i)
			}
		}
	})
}

// TestGatherSamplePresized checks that the local contribution is built
// without reallocation: capacity len(OwnedIDs)/stride+1 bounds the
// stride-loop count.
func TestGatherSamplePresized(t *testing.T) {
	for _, n := range []int{1, 7, 64, 1000} {
		for _, per := range []int{1, 5, 4097} {
			stride := n/per + 1
			count := 0
			for i := 0; i < n; i += stride {
				count++
			}
			if capacity := n/stride + 1; count > capacity {
				t.Fatalf("n=%d per=%d: %d entries exceed presized capacity %d", n, per, count, capacity)
			}
		}
	}
}

// TestEdgeCacheResolvesEndpoints cross-checks the edge topology cache
// against the reference resolution (ghost map, owned binary search) on
// every rank of a split view.
func TestEdgeCacheResolvesEndpoints(t *testing.T) {
	g := gen.DelaunayRandom(2000, 3)
	const p = 8
	views := embed.SplitCoords(g.G, g.Coords, p)
	for r := 0; r < p; r++ {
		d := views[r]
		ec := buildEdgeCache(g.G, d)
		nOwn := len(d.OwnedIDs)
		if ec.nOwn != nOwn || ec.nGhost != len(d.GhostIDs) {
			t.Fatalf("rank %d: cache sized %d/%d, want %d/%d", r, ec.nOwn, ec.nGhost, nOwn, len(d.GhostIDs))
		}
		cutEdges := 0
		for i, id := range d.OwnedIDs {
			if got, wantN := ec.start[i+1]-ec.start[i], g.G.XAdj[id+1]-g.G.XAdj[id]; got != wantN {
				t.Fatalf("rank %d vertex %d: %d cached neighbours, want %d", r, id, got, wantN)
			}
			for e := g.G.XAdj[id]; e < g.G.XAdj[id+1]; e++ {
				nb := g.G.Adjncy[e]
				s := ec.slot[int(ec.start[i])+int(e-g.G.XAdj[id])]
				want := int32(-1)
				if li, ok := ownedIndex(d, nb); ok {
					want = li
				} else if gi, ok := d.GhostSlot(nb); ok {
					want = int32(nOwn) + gi
				}
				if s != want {
					t.Fatalf("rank %d edge %d->%d: slot %d, want %d", r, id, nb, s, want)
				}
				if nb > id && want >= 0 {
					cutEdges++
				}
			}
		}
		if len(ec.cutA) != cutEdges || len(ec.cutB) != cutEdges || len(ec.cutW) != cutEdges {
			t.Fatalf("rank %d: cut view has %d/%d/%d edges, want %d", r, len(ec.cutA), len(ec.cutB), len(ec.cutW), cutEdges)
		}
		ec.release()
	}
}

// ownedIndex binary-searches the local index of an owned vertex; owned
// ids are sorted by construction.
func ownedIndex(d *embed.Distributed, id int32) (int32, bool) {
	lo, hi := 0, len(d.OwnedIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.OwnedIDs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.OwnedIDs) && d.OwnedIDs[lo] == id {
		return int32(lo), true
	}
	return 0, false
}

// TestParallelPartitionReplayBitIdentical runs SP-PG7-NL and parallel
// RCB under several hostpar worker counts and requires the cuts, sides,
// weights, strip sizes and per-rank clocks of a one-worker run. The
// full-pipeline sweep lives in core's TestBatchingBitIdentical; this is
// the package-local check.
func TestParallelPartitionReplayBitIdentical(t *testing.T) {
	g := gen.DelaunayRandom(4000, 5)
	type outcome struct {
		part   []int32
		sp     ParallelResult
		rcb    ParallelResult
		clocks []float64
	}
	run := func(p int) outcome {
		views := embed.SplitCoords(g.G, g.Coords, p)
		o := outcome{part: make([]int32, g.G.NumVertices()), clocks: make([]float64, p)}
		mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
			res := ParallelPartition(c, g.G, views[c.Rank()], DefaultParallelConfig())
			for i, id := range res.OwnedIDs {
				o.part[id] = res.Side[i]
			}
			r2 := ParallelRCB(c, g.G, views[c.Rank()])
			o.clocks[c.Rank()] = c.Elapsed()
			if c.Rank() == 0 {
				o.sp, o.rcb = *res, *r2
			}
		})
		return o
	}
	for _, p := range []int{1, 4, 16} {
		ref := func() outcome {
			defer hostpar.SetWorkers(hostpar.SetWorkers(1))
			return run(p)
		}()
		for _, w := range []int{2, 8} {
			name := fmt.Sprintf("P=%d, %d workers", p, w)
			got := func() outcome {
				defer hostpar.SetWorkers(hostpar.SetWorkers(w))
				return run(p)
			}()
			if got.sp.Cut != ref.sp.Cut || got.sp.CutBefore != ref.sp.CutBefore || got.sp.SideW != ref.sp.SideW || got.sp.StripSize != ref.sp.StripSize {
				t.Fatalf("%s: SP results differ: %+v, one worker %+v", name, got.sp, ref.sp)
			}
			if got.rcb.Cut != ref.rcb.Cut || got.rcb.SideW != ref.rcb.SideW {
				t.Fatalf("%s: RCB results differ: %+v, one worker %+v", name, got.rcb, ref.rcb)
			}
			if !slices.Equal(got.part, ref.part) {
				t.Fatalf("%s: per-vertex sides differ from the one-worker run", name)
			}
			if !slices.Equal(got.clocks, ref.clocks) {
				t.Fatalf("%s: clocks %v, one worker %v", name, got.clocks, ref.clocks)
			}
		}
	}
}

// TestParallelPartitionSharedValuesRace runs SP-PG7-NL at P=64 with
// strip and full-cut refinement on. The sample, the candidate set, the
// strip records and the free-set records are shared read-only by every
// rank, so under -race any rank writing into them trips the detector.
// Without -race it still checks that the reported cut matches a
// recount and that a second run is identical.
func TestParallelPartitionSharedValuesRace(t *testing.T) {
	g := gen.DelaunayRandom(6000, 3)
	const p = 64
	part, res := runSP(g, p, fullCutConfig(), mpi.DefaultModel())
	if res.StripSize == 0 || res.Boundary == 0 {
		t.Fatalf("refinement did not run: strip %d, boundary %d", res.StripSize, res.Boundary)
	}
	if got := graph.CutSize(g.G, part); got != res.Cut {
		t.Fatalf("reported cut %d, recount %d", res.Cut, got)
	}
	part2, res2 := runSP(g, p, fullCutConfig(), mpi.DefaultModel())
	if res2.Cut != res.Cut || !slices.Equal(part2, part) {
		t.Fatalf("second run differs: cut %d vs %d", res2.Cut, res.Cut)
	}
}

// TestParallelPartitionSampleNotCopiedPerRank guards the shared sample:
// at P=256 a partition call with strip refinement allocates, world-wide,
// less than one float64 per sample entry per rank, the smallest
// sample-sized array a rank could build. Before the sample, its
// normalisation, its lift to the sphere and the candidate set were
// derived once per collective, every rank built several sample-sized
// arrays; before the strip width was derived once in the candidate
// reduction, every rank projected the sample onto the winning separator
// and took a quantile of it.
func TestParallelPartitionSampleNotCopiedPerRank(t *testing.T) {
	if testing.Short() {
		t.Skip("P=256 world")
	}
	const p = 256
	g := gen.Grid2D(128, 128)
	views := embed.SplitCoords(g.G, g.Coords, p)
	cfg := DefaultParallelConfig()
	var perCall float64
	var sampleLen int
	mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
		d := views[c.Rank()]
		ParallelPartition(c, g.G, d, cfg) // warm pools
		n := gatherSample(c, d, 4096, func(s []sampleEntry) int { return len(s) })
		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		ParallelPartition(c, g.G, d, cfg)
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perCall, sampleLen = float64(m1.TotalAlloc-m0.TotalAlloc), n
		}
		c.Barrier()
	})
	perRankCopies := float64(p * sampleLen * int(unsafe.Sizeof(float64(0))))
	t.Logf("P=%d: %.1f MB allocated per call; one float64 per sample entry per rank would be %.1f MB",
		p, perCall/1e6, perRankCopies/1e6)
	if perCall >= perRankCopies {
		t.Errorf("partition call allocated %.0f B world-wide, at least one sample-sized array per rank (%.0f B)", perCall, perRankCopies)
	}
}

// TestParallelPartitionSteadyStateAllocs guards the batched kernel's
// allocation budget: once the edge-cache and kernel-scratch pools are
// warm, repeated partition calls must not reallocate the projection
// block, the side bitsets, or the topology cache. The bound is
// world-wide per call and leaves headroom for the per-call result,
// sample, and strip structures that are intentionally fresh.
func TestParallelPartitionSteadyStateAllocs(t *testing.T) {
	const (
		p     = 4
		calls = 10
	)
	g := gen.Grid2D(64, 64)
	views := embed.SplitCoords(g.G, g.Coords, p)
	cfg := DefaultParallelConfig()
	var perCall float64
	mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
		for i := 0; i < 3; i++ { // warm pools
			ParallelPartition(c, g.G, views[c.Rank()], cfg)
		}
		c.Barrier()
		var m0, m1 runtime.MemStats
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for i := 0; i < calls; i++ {
			ParallelPartition(c, g.G, views[c.Rank()], cfg)
		}
		c.Barrier()
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
			perCall = float64(m1.Mallocs-m0.Mallocs) / calls
		}
		c.Barrier()
	})
	if perCall > 900 {
		t.Errorf("steady-state ParallelPartition: %.0f mallocs per call (world-wide), want well under 900", perCall)
	}
	t.Logf("steady-state ParallelPartition: %.0f mallocs per call across %d ranks", perCall, p)
}

// benchGeo builds the benchmark workload once per (graph, P).
func benchViews(b *testing.B, p int) (*gen.Generated, []*embed.Distributed) {
	b.Helper()
	g := gen.Grid2D(128, 128)
	return g, embed.SplitCoords(g.G, g.Coords, p)
}

// BenchmarkParallelPartition measures the full SP-PG7-NL bisection
// (simulated world included) at P=4 and P=16.
func BenchmarkParallelPartition(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			g, views := benchViews(b, p)
			cfg := DefaultParallelConfig()
			var cut int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
					res := ParallelPartition(c, g.G, views[c.Rank()], cfg)
					if c.Rank() == 0 {
						cut = res.Cut
					}
				})
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// BenchmarkRCBParallel measures the parallel RCB single cut at P=4 and
// P=16.
func BenchmarkRCBParallel(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			g, views := benchViews(b, p)
			var cut int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
					res := ParallelRCB(c, g.G, views[c.Rank()])
					if c.Rank() == 0 {
						cut = res.Cut
					}
				})
			}
			b.ReportMetric(float64(cut), "cut")
		})
	}
}

// BenchmarkSplitCoords measures the host-side split of known
// coordinates into per-rank views with resolved adjacency, at the
// repartitioning workload's size: a 262144-vertex Delaunay mesh at
// P=256.
func BenchmarkSplitCoords(b *testing.B) {
	g := gen.DelaunayRandom(262144, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		splitSink = embed.SplitCoords(g.G, g.Coords, 256)
	}
}

var splitSink []*embed.Distributed

// TestEdgeCacheReadsViewAdjacency: the cache reads the view's resolved
// adjacency in place and never writes it. Reusing a pooled cache for a
// second view, and a partition call with strip and full-cut refinement,
// leave the first view's adjacency as it was.
func TestEdgeCacheReadsViewAdjacency(t *testing.T) {
	g := gen.DelaunayRandom(3000, 2)
	const p = 4
	views := embed.SplitCoords(g.G, g.Coords, p)
	start, slot := views[0].Adjacency(g.G)
	wantStart, wantSlot := slices.Clone(start), slices.Clone(slot)
	ec := buildEdgeCache(g.G, views[0])
	if &ec.start[0] != &start[0] || &ec.slot[0] != &slot[0] {
		t.Fatal("the cache copied the view's adjacency instead of reading it")
	}
	ec.release()
	for r := 1; r < p; r++ {
		buildEdgeCache(g.G, views[r]).release()
	}
	mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
		ParallelPartition(c, g.G, views[c.Rank()], fullCutConfig())
	})
	start, slot = views[0].Adjacency(g.G)
	if !slices.Equal(start, wantStart) || !slices.Equal(slot, wantSlot) {
		t.Fatal("the view's adjacency changed")
	}
}

// TestEdgeCacheRemoteSlot: a view whose ghost ring misses a neighbour
// must skip the edge (slot -1): it is neither owned nor ghost here.
func TestEdgeCacheRemoteSlot(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	d := &embed.Distributed{
		OwnedIDs: []int32{0, 1},
		GhostIDs: []int32{}, // vertex 2 is adjacent but not ghosted
	}
	ec := buildEdgeCache(g, d)
	defer ec.release()
	// Vertex 1's neighbour 2 must resolve to -1 and produce no cut edge.
	for _, s := range ec.slot {
		if s >= 2 {
			t.Fatalf("cache resolved a slot %d beyond the view", s)
		}
	}
	if len(ec.cutA) != 1 {
		t.Fatalf("cut view has %d edges, want 1 (0-1 only)", len(ec.cutA))
	}
}
