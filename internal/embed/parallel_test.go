package embed

import (
	"sort"
	"testing"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/mpi"
)

// runEmbed executes the parallel embedding on p simulated ranks and
// returns the per-rank distributed results plus rank stats.
func runEmbed(t *testing.T, g *gen.Generated, p int, opt ParallelOptions) ([]*Distributed, []mpi.RankStats) {
	t.Helper()
	return runEmbedAt(t, g, p, 0, opt)
}

// runEmbedAt is runEmbed in a world of the given host width.
func runEmbedAt(t *testing.T, g *gen.Generated, p, workers int, opt ParallelOptions) ([]*Distributed, []mpi.RankStats) {
	t.Helper()
	h := coarsen.BuildHierarchy(g.G, p, coarsen.Options{CoarsestSize: 200, Seed: 1})
	m := mpi.DefaultModel()
	m.Workers = workers
	out := make([]*Distributed, p)
	stats := mpi.Run(p, m, func(c *mpi.Comm) {
		out[c.Rank()] = ParallelEmbed(c, h, opt)
	})
	return out, stats
}

// TestParallelEmbedPartitionOfVertices checks that across ranks the
// owned vertex sets exactly partition the graph.
func TestParallelEmbedPartitionOfVertices(t *testing.T) {
	for _, p := range []int{1, 2, 4, 16} {
		g := gen.Grid2D(40, 40)
		out, _ := runEmbed(t, g, p, ParallelOptions{Seed: 7, IterCoarsest: 60, IterSmooth: 10})
		seen := make(map[int32]int)
		total := 0
		for r, d := range out {
			if d == nil {
				t.Fatalf("p=%d: rank %d returned nil", p, r)
			}
			total += len(d.OwnedIDs)
			for _, id := range d.OwnedIDs {
				if prev, dup := seen[id]; dup {
					t.Fatalf("p=%d: vertex %d owned by ranks %d and %d", p, id, prev, r)
				}
				seen[id] = r
			}
		}
		if total != g.G.NumVertices() {
			t.Fatalf("p=%d: %d owned vertices, want %d", p, total, g.G.NumVertices())
		}
	}
}

// TestParallelEmbedGhostsConsistent checks that every rank's ghost
// coordinates match the owner's coordinates after the final refresh.
func TestParallelEmbedGhostsConsistent(t *testing.T) {
	p := 4
	g := gen.Grid2D(30, 30)
	out, _ := runEmbed(t, g, p, ParallelOptions{Seed: 3, IterCoarsest: 40, IterSmooth: 8})
	pos := make(map[int32]geometry.Vec2)
	for _, d := range out {
		for i, id := range d.OwnedIDs {
			pos[id] = d.OwnedPos[i]
		}
	}
	for r, d := range out {
		for i, id := range d.GhostIDs {
			want := pos[id]
			got := d.GhostPos[i]
			if want.Dist(got) > 1e-9 {
				t.Fatalf("rank %d ghost %d: got %v want %v", r, id, got, want)
			}
		}
	}
}

// TestParallelEmbedQuality: the embedding of a grid should place graph
// neighbours much closer together than random vertex pairs (a layout
// that preserves locality is all the geometric partitioner needs).
func TestParallelEmbedQuality(t *testing.T) {
	g := gen.Grid2D(32, 32)
	out, _ := runEmbed(t, g, 4, ParallelOptions{Seed: 5})
	pos := make([]geometry.Vec2, g.G.NumVertices())
	for _, d := range out {
		for i, id := range d.OwnedIDs {
			pos[id] = d.OwnedPos[i]
		}
	}
	var edgeSum float64
	var edges int
	for u := int32(0); u < int32(g.G.NumVertices()); u++ {
		for _, v := range g.G.Neighbors(u) {
			if u < v {
				edgeSum += pos[u].Dist(pos[v])
				edges++
			}
		}
	}
	meanEdge := edgeSum / float64(edges)
	// Mean distance between far-apart id pairs (ids differ by half the
	// grid) as a proxy for random pairs.
	var farSum float64
	var far int
	n := g.G.NumVertices()
	for u := 0; u < n/2; u += 7 {
		farSum += pos[u].Dist(pos[u+n/2])
		far++
	}
	meanFar := farSum / float64(far)
	if meanEdge*2 > meanFar {
		t.Fatalf("embedding does not separate: mean edge length %.3f vs far-pair %.3f", meanEdge, meanFar)
	}
}

// TestParallelEmbedDeterminism: identical inputs must give identical
// coordinates regardless of goroutine scheduling.
func TestParallelEmbedDeterminism(t *testing.T) {
	g := gen.Grid2D(24, 24)
	collect := func() []geometry.Vec2 {
		out, _ := runEmbed(t, g, 4, ParallelOptions{Seed: 11, IterCoarsest: 30, IterSmooth: 6})
		pos := make([]geometry.Vec2, g.G.NumVertices())
		for _, d := range out {
			for i, id := range d.OwnedIDs {
				pos[id] = d.OwnedPos[i]
			}
		}
		return pos
	}
	a := collect()
	b := collect()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vertex %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestParallelEmbedClockAdvances sanity-checks the virtual clocks: all
// ranks end with positive time and communication time below total.
func TestParallelEmbedClockAdvances(t *testing.T) {
	g := gen.Grid2D(30, 30)
	_, stats := runEmbed(t, g, 8, ParallelOptions{Seed: 2, IterCoarsest: 30, IterSmooth: 6})
	times := make([]float64, len(stats))
	for i, s := range stats {
		if s.Time <= 0 {
			t.Fatalf("rank %d: non-positive virtual time %v", i, s.Time)
		}
		if s.CommTime > s.Time+1e-12 {
			t.Fatalf("rank %d: comm %v exceeds total %v", i, s.CommTime, s.Time)
		}
		times[i] = s.Time
	}
	sort.Float64s(times)
	if times[0] <= 0 {
		t.Fatal("min rank time not positive")
	}
}
