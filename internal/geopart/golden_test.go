package geopart

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// weightedMesh rebuilds g with deterministic vertex weights in [1, 3]
// and arc weights in [1, 5], both a function of the endpoint ids, so
// every cut and side weight depends on the weights being read.
func weightedMesh(g *gen.Generated) *gen.Generated {
	n := g.G.NumVertices()
	b := graph.NewBuilder(n)
	for u := int32(0); u < int32(n); u++ {
		b.SetVertexWeight(u, 1+u%3)
		for _, v := range g.G.Neighbors(u) {
			if u < v {
				b.AddWeightedEdge(u, v, 1+(7*u+13*v)%5)
			}
		}
	}
	return &gen.Generated{Name: g.Name + "-weighted", G: b.Build(), Coords: g.Coords}
}

// goldenGraphs are the inputs of TestParallelPartitionGolden: a unit
// mesh, a weighted mesh, and both compressed.
func goldenGraphs() []*gen.Generated {
	mesh := gen.DelaunayRandom(6000, 11)
	weighted := weightedMesh(gen.DelaunayRandom(6000, 12))
	return []*gen.Generated{
		mesh,
		weighted,
		{Name: "compressed", G: graph.Compress(mesh.G), Coords: mesh.Coords},
		{Name: "compressed-weighted", G: graph.Compress(weighted.G), Coords: weighted.Coords},
	}
}

// TestParallelPartitionGolden pins SP-PG7-NL on known coordinates, the
// way TestRCBModeledClockGolden pins parallel RCB: the cut before and
// after refinement, the side weights, the strip size, an FNV-1a hash of
// the assembled part vector and rank 0's modeled clock bits, with the
// full-cut pass off and at FullRefineRounds, at P ∈ {1, 16, 256}. The
// values were recorded before candidate evaluation moved onto side
// masks over the resolved adjacency; that kernel must reproduce them.
func TestParallelPartitionGolden(t *testing.T) {
	type golden struct {
		cut, cutBefore int64
		sideW          [2]int64
		strip          int
		hash, clock    uint64
	}
	want := map[string]golden{
		"delaunay/rounds=0/P=1":              {165, 183, [2]int64{2985, 3015}, 1468, 0xdd2c78356cea5d34, 0x3f387418694d0786},
		"delaunay/rounds=0/P=16":             {151, 175, [2]int64{2976, 3024}, 1385, 0x65464059cb6ac675, 0x3f250fbf62416dd2},
		"delaunay/rounds=0/P=256":            {179, 206, [2]int64{3036, 2964}, 1462, 0x95b6b627bfe4da45, 0x3f2cc15c20504e3f},
		"delaunay/rounds=4/P=1":              {165, 183, [2]int64{2985, 3015}, 1468, 0xdd2c78356cea5d34, 0x3f3a03da7ca41a9d},
		"delaunay/rounds=4/P=16":             {151, 175, [2]int64{2976, 3024}, 1385, 0x65464059cb6ac675, 0x3f2d597b1c2f236b},
		"delaunay/rounds=4/P=256":            {179, 206, [2]int64{3036, 2964}, 1462, 0x95b6b627bfe4da45, 0x3f363aad4ea4f821},
		"delaunay-weighted/rounds=0/P=1":     {463, 585, [2]int64{5951, 6049}, 1504, 0x71bb96b0c8119b05, 0x3f3887f12f937aa2},
		"delaunay-weighted/rounds=0/P=16":    {481, 633, [2]int64{5953, 6047}, 1497, 0x5f54505eae3ef24, 0x3f2582c16276c7d1},
		"delaunay-weighted/rounds=0/P=256":   {487, 572, [2]int64{6022, 5978}, 1460, 0x915aca1d7df168f4, 0x3f2cc35b662d8886},
		"delaunay-weighted/rounds=4/P=1":     {463, 585, [2]int64{5951, 6049}, 1504, 0x71bb96b0c8119b05, 0x3f3a14fd47d3d112},
		"delaunay-weighted/rounds=4/P=16":    {481, 633, [2]int64{5953, 6047}, 1497, 0x5f54505eae3ef24, 0x3f2dd9080749142e},
		"delaunay-weighted/rounds=4/P=256":   {487, 572, [2]int64{6022, 5978}, 1460, 0x915aca1d7df168f4, 0x3f362fb633d5b0d1},
		"compressed/rounds=0/P=1":            {165, 183, [2]int64{2985, 3015}, 1468, 0xdd2c78356cea5d34, 0x3f387418694d0786},
		"compressed/rounds=0/P=16":           {151, 175, [2]int64{2976, 3024}, 1385, 0x65464059cb6ac675, 0x3f250fbf62416dd2},
		"compressed/rounds=0/P=256":          {179, 206, [2]int64{3036, 2964}, 1462, 0x95b6b627bfe4da45, 0x3f2cc15c20504e3f},
		"compressed/rounds=4/P=1":            {165, 183, [2]int64{2985, 3015}, 1468, 0xdd2c78356cea5d34, 0x3f3a03da7ca41a9d},
		"compressed/rounds=4/P=16":           {151, 175, [2]int64{2976, 3024}, 1385, 0x65464059cb6ac675, 0x3f2d597b1c2f236b},
		"compressed/rounds=4/P=256":          {179, 206, [2]int64{3036, 2964}, 1462, 0x95b6b627bfe4da45, 0x3f363aad4ea4f821},
		"compressed-weighted/rounds=0/P=1":   {463, 585, [2]int64{5951, 6049}, 1504, 0x71bb96b0c8119b05, 0x3f3887f12f937aa2},
		"compressed-weighted/rounds=0/P=16":  {481, 633, [2]int64{5953, 6047}, 1497, 0x5f54505eae3ef24, 0x3f2582c16276c7d1},
		"compressed-weighted/rounds=0/P=256": {487, 572, [2]int64{6022, 5978}, 1460, 0x915aca1d7df168f4, 0x3f2cc35b662d8886},
		"compressed-weighted/rounds=4/P=1":   {463, 585, [2]int64{5951, 6049}, 1504, 0x71bb96b0c8119b05, 0x3f3a14fd47d3d112},
		"compressed-weighted/rounds=4/P=16":  {481, 633, [2]int64{5953, 6047}, 1497, 0x5f54505eae3ef24, 0x3f2dd9080749142e},
		"compressed-weighted/rounds=4/P=256": {487, 572, [2]int64{6022, 5978}, 1460, 0x915aca1d7df168f4, 0x3f362fb633d5b0d1},
	}
	for _, g := range goldenGraphs() {
		for _, rounds := range []int{0, FullRefineRounds} {
			for _, p := range []int{1, 16, 256} {
				if testing.Short() && p == 256 {
					continue
				}
				name := fmt.Sprintf("%s/rounds=%d/P=%d", g.Name, rounds, p)
				cfg := DefaultParallelConfig()
				cfg.FullCutRounds = rounds
				views := embed.SplitCoords(g.G, g.Coords, p)
				part := make([]int32, g.G.NumVertices())
				var clock float64
				var r0 *ParallelResult
				mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
					res := ParallelPartition(c, g.G, views[c.Rank()], cfg)
					for i, id := range res.OwnedIDs {
						part[id] = res.Side[i]
					}
					if c.Rank() == 0 {
						clock, r0 = c.Elapsed(), res
					}
				})
				h := fnv.New64a()
				binary.Write(h, binary.LittleEndian, part)
				got := golden{r0.Cut, r0.CutBefore, r0.SideW, r0.StripSize, h.Sum64(), math.Float64bits(clock)}
				w, ok := want[name]
				if !ok {
					t.Errorf("%q: {%d, %d, [2]int64{%d, %d}, %d, %#x, %#x},", name, got.cut, got.cutBefore, got.sideW[0], got.sideW[1], got.strip, got.hash, got.clock)
					continue
				}
				if got.cut != w.cut || got.cutBefore != w.cutBefore || got.sideW != w.sideW || got.strip != w.strip || got.hash != w.hash {
					t.Errorf("%s: partition drifted: cut %d before %d sideW %v strip %d hash %#x, want %d %d %v %d %#x",
						name, got.cut, got.cutBefore, got.sideW, got.strip, got.hash, w.cut, w.cutBefore, w.sideW, w.strip, w.hash)
				}
				if got.clock != w.clock {
					t.Errorf("%s: rank 0 modeled clock %v (%#x) drifted from %v",
						name, clock, got.clock, math.Float64frombits(w.clock))
				}
			}
		}
	}
}

// TestParallelRCBGolden pins parallel RCB's cut, side weights and part
// hash on the golden graphs, recorded with TestParallelPartitionGolden:
// the single cut is counted by the same adjacency pass as the
// candidates, so weighted and compressed inputs must read the same arc
// weights.
func TestParallelRCBGolden(t *testing.T) {
	type golden struct {
		cut   int64
		sideW [2]int64
		hash  uint64
	}
	want := map[string]golden{
		"delaunay/P=1":              {176, [2]int64{2999, 3001}, 0x6eb3d6ca1f02b964},
		"delaunay/P=16":             {173, [2]int64{3001, 2999}, 0x6baa0b8cb903e284},
		"delaunay/P=256":            {174, [2]int64{3010, 2990}, 0x4e0de312aa426f85},
		"delaunay-weighted/P=1":     {600, [2]int64{5986, 6014}, 0x76cf1eff76cb6a04},
		"delaunay-weighted/P=16":    {569, [2]int64{6002, 5998}, 0x1f75b338cbe7d5c5},
		"delaunay-weighted/P=256":   {592, [2]int64{6033, 5967}, 0x90f79078f7558ea5},
		"compressed/P=1":            {176, [2]int64{2999, 3001}, 0x6eb3d6ca1f02b964},
		"compressed/P=16":           {173, [2]int64{3001, 2999}, 0x6baa0b8cb903e284},
		"compressed/P=256":          {174, [2]int64{3010, 2990}, 0x4e0de312aa426f85},
		"compressed-weighted/P=1":   {600, [2]int64{5986, 6014}, 0x76cf1eff76cb6a04},
		"compressed-weighted/P=16":  {569, [2]int64{6002, 5998}, 0x1f75b338cbe7d5c5},
		"compressed-weighted/P=256": {592, [2]int64{6033, 5967}, 0x90f79078f7558ea5},
	}
	for _, g := range goldenGraphs() {
		for _, p := range []int{1, 16, 256} {
			if testing.Short() && p == 256 {
				continue
			}
			name := fmt.Sprintf("%s/P=%d", g.Name, p)
			views := embed.SplitCoords(g.G, g.Coords, p)
			part := make([]int32, g.G.NumVertices())
			var r0 *ParallelResult
			mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
				res := ParallelRCB(c, g.G, views[c.Rank()])
				for i, id := range res.OwnedIDs {
					part[id] = res.Side[i]
				}
				if c.Rank() == 0 {
					r0 = res
				}
			})
			h := fnv.New64a()
			binary.Write(h, binary.LittleEndian, part)
			got := golden{r0.Cut, r0.SideW, h.Sum64()}
			w, ok := want[name]
			if !ok {
				t.Errorf("%q: {%d, [2]int64{%d, %d}, %#x},", name, got.cut, got.sideW[0], got.sideW[1], got.hash)
				continue
			}
			if got != w {
				t.Errorf("%s: cut %d sideW %v hash %#x, want %d %v %#x", name, got.cut, got.sideW, got.hash, w.cut, w.sideW, w.hash)
			}
		}
	}
}
