package embed

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/coarsen"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// oracleAdjacency is the map-based resolution the partitioner's edge
// cache ran on every rank before views carried their adjacency: each
// arc of an owned vertex is looked up by neighbour id in an owned-id
// map, then a ghost-id map, and -1 marks a neighbour found in neither.
// It is the differential oracle for Adjacency; w holds the aligned arc
// weights, nil when g has unit weights.
func oracleAdjacency(g *graph.Graph, d *Distributed) (start, slot, w []int32) {
	local := make(map[int32]int32, len(d.OwnedIDs))
	for i, id := range d.OwnedIDs {
		local[id] = int32(i)
	}
	ghost := make(map[int32]int32, len(d.GhostIDs))
	for i, id := range d.GhostIDs {
		ghost[id] = int32(i)
	}
	nOwn := int32(len(d.OwnedIDs))
	start = []int32{0}
	plain := g.Plain()
	if plain.EWgt != nil {
		w = []int32{}
	}
	for _, id := range d.OwnedIDs {
		for k := plain.XAdj[id]; k < plain.XAdj[id+1]; k++ {
			nb := plain.Adjncy[k]
			s := int32(-1)
			if li, ok := local[nb]; ok {
				s = li
			} else if gi, ok := ghost[nb]; ok {
				s = nOwn + gi
			}
			slot = append(slot, s)
			if plain.EWgt != nil {
				w = append(w, plain.EWgt[k])
			}
		}
		start = append(start, int32(len(slot)))
	}
	return start, slot, w
}

// withIsolated returns a copy of g with k isolated vertices appended,
// each at a fresh coordinate. With weighted set, the arcs of the copy
// weigh 1 to 4, a function of the endpoint ids.
func withIsolated(g *gen.Generated, k int, weighted bool) *gen.Generated {
	n := g.G.NumVertices()
	b := graph.NewBuilder(n + k)
	for u := int32(0); u < int32(n); u++ {
		for _, v := range g.G.Neighbors(u) {
			switch {
			case u > v:
			case weighted:
				b.AddWeightedEdge(u, v, 1+(u+3*v)%4)
			default:
				b.AddEdge(u, v)
			}
		}
	}
	coords := append([]geometry.Vec2(nil), g.Coords...)
	for i := 0; i < k; i++ {
		coords = append(coords, geometry.Vec2{X: float64(i%7) / 7, Y: float64(i%11) / 11})
	}
	return &gen.Generated{G: b.Build(), Coords: coords}
}

// adjacencyGraphs are the differential test's inputs: a Delaunay mesh
// with isolated vertices, unit and arc-weighted, plain and compressed.
func adjacencyGraphs() map[string]*gen.Generated {
	plain := withIsolated(gen.DelaunayRandom(3000, 11), 25, false)
	weighted := withIsolated(gen.DelaunayRandom(3000, 11), 25, true)
	return map[string]*gen.Generated{
		"plain":               plain,
		"compressed":          {G: graph.Compress(plain.G), Coords: plain.Coords},
		"weighted":            weighted,
		"compressed-weighted": {G: graph.Compress(weighted.G), Coords: weighted.Coords},
	}
}

// checkAgainstOracle requires every view's adjacency to equal the
// map-based oracle's and every vertex to be owned exactly once.
func checkAgainstOracle(t *testing.T, name string, g *graph.Graph, views []*Distributed) {
	t.Helper()
	owned := 0
	for r, d := range views {
		wantStart, wantSlot, wantW := oracleAdjacency(g, d)
		start, slot, w := d.Adjacency(g)
		if !slices.Equal(start, wantStart) || !slices.Equal(slot, wantSlot) {
			t.Fatalf("%s rank %d: adjacency differs from the map-based resolution", name, r)
		}
		if (w == nil) != (wantW == nil) || !slices.Equal(w, wantW) {
			t.Fatalf("%s rank %d: arc weights differ from the graph's (nil %v, want nil %v)", name, r, w == nil, wantW == nil)
		}
		for i, id := range d.OwnedIDs {
			if li, ok := d.LocalSlot(id); !ok || li != int32(i) {
				t.Fatalf("%s rank %d: LocalSlot(%d) = %d, %v; want %d", name, r, id, li, ok, i)
			}
		}
		owned += len(d.OwnedIDs)
	}
	if owned != g.NumVertices() {
		t.Fatalf("%s: %d vertices owned, want %d", name, owned, g.NumVertices())
	}
}

// TestSplitCoordsAdjacencyMatchesOracle: SplitCoords resolves each
// view's adjacency where it decides ownership, without building the
// ghost index, lists owned ids in the ascending order LocalSlot's binary
// search needs, and the result equals the map-based resolution.
func TestSplitCoordsAdjacencyMatchesOracle(t *testing.T) {
	for name, g := range adjacencyGraphs() {
		for _, p := range []int{1, 4, 64, 256} {
			views := SplitCoords(g.G, g.Coords, p)
			for r, d := range views {
				if d.ghostSlot != nil {
					t.Fatalf("%s P=%d rank %d: SplitCoords built a per-rank map", name, p, r)
				}
				if !slices.IsSorted(d.OwnedIDs) {
					t.Fatalf("%s P=%d rank %d: OwnedIDs not ascending", name, p, r)
				}
			}
			checkAgainstOracle(t, fmt.Sprintf("%s P=%d", name, p), g.G, views)
		}
	}
}

// TestParallelEmbedAdjacencyMatchesOracle: the embedding's final views
// carry the adjacency its level state resolved, equal to the map-based
// resolution, with owned ids in ascending order.
func TestParallelEmbedAdjacencyMatchesOracle(t *testing.T) {
	ps := []int{1, 4, 64, 256}
	if testing.Short() {
		ps = []int{1, 4, 64}
	}
	for name, g := range adjacencyGraphs() {
		for _, p := range ps {
			h := coarsen.BuildHierarchy(g.G, p, coarsen.Options{CoarsestSize: 200, Seed: 1})
			views := make([]*Distributed, p)
			mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
				views[c.Rank()] = ParallelEmbed(c, h, ParallelOptions{Seed: 3, IterCoarsest: 10, IterSmooth: 2})
			})
			for r, d := range views {
				if !slices.IsSorted(d.OwnedIDs) {
					t.Fatalf("%s P=%d rank %d: OwnedIDs not ascending", name, p, r)
				}
			}
			checkAgainstOracle(t, fmt.Sprintf("%s P=%d", name, p), g.G, views)
		}
	}
}

// embedDownTo runs ParallelEmbed's level loop from the coarsest level
// down to level stop and returns this rank's state there, nil where the
// rank is not active at stop.
func embedDownTo(c *mpi.Comm, h *coarsen.Hierarchy, stop int, opt ParallelOptions) *levelState {
	opt = opt.withDefaults()
	last := len(h.Levels) - 1
	var st *levelState
	for li := last; li >= stop; li-- {
		sub := c.SubComm(h.Levels[li].Ranks)
		if sub == nil {
			continue
		}
		if li == last {
			st = initCoarsest(sub, &h.Levels[li], opt)
		} else {
			st = projectLevel(sub, h, li, st, opt)
		}
		st.Smooth(2, 2)
	}
	return st
}

// TestLevelAdjacencyHandedToView: a level state keeps its adjacency in
// the view's slot-resolved layout, and finish hands those arrays to the
// view as they are: Adjacency returns the level's own arrays, with nil
// weights on a unit-weight finest level, and on an arc-weighted coarse
// level the handed-over arrays equal the map-based resolution. Views
// straight from ParallelEmbed carry the resolved adjacency before any
// Adjacency call.
func TestLevelAdjacencyHandedToView(t *testing.T) {
	g := withIsolated(gen.DelaunayRandom(3000, 11), 25, false)
	for _, p := range []int{1, 4, 64} {
		h := coarsen.BuildHierarchy(g.G, p, coarsen.Options{CoarsestSize: 200, Seed: 1})
		if len(h.Levels) < 2 || !h.Levels[1].G.EdgeWeighted() {
			t.Fatalf("P=%d: level 1 is not an arc-weighted coarse level", p)
		}
		opt := ParallelOptions{Seed: 3, IterCoarsest: 10, IterSmooth: 2}
		for _, stop := range []int{0, 1} {
			lg := h.Levels[stop].G
			views := make([]*Distributed, p)
			mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
				st := embedDownTo(c, h, stop, opt)
				if st == nil {
					views[c.Rank()] = &Distributed{}
					return
				}
				d := st.finish()
				start, slot, w := d.Adjacency(lg)
				if unsafe.SliceData(start) != unsafe.SliceData(st.adjStart) ||
					unsafe.SliceData(slot) != unsafe.SliceData(st.adjSlot) ||
					unsafe.SliceData(w) != unsafe.SliceData(st.adjW) {
					t.Errorf("P=%d level %d rank %d: the view's adjacency is a copy of the level's", p, stop, c.Rank())
				}
				if (w == nil) == lg.EdgeWeighted() {
					t.Errorf("P=%d level %d rank %d: arc weights nil %v on a graph with weighted arcs %v", p, stop, c.Rank(), w == nil, lg.EdgeWeighted())
				}
				views[c.Rank()] = d
			})
			checkAgainstOracle(t, fmt.Sprintf("P=%d level %d", p, stop), lg, views)
		}
		mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
			d := ParallelEmbed(c, h, opt)
			if len(d.OwnedIDs) > 0 && (d.adjStart == nil || d.adjW != nil) {
				t.Errorf("P=%d rank %d: ParallelEmbed's view left its adjacency unresolved or weighted unit arcs", p, c.Rank())
			}
		})
	}
}

// TestAdjacencyHandBuiltView: a view built by hand resolves its
// adjacency on first use, marking a neighbour outside its ghost ring
// -1, and PosOf/Owns see its owned and ghost vertices through the lazy
// indexes.
func TestAdjacencyHandBuiltView(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	d := &Distributed{
		OwnedIDs: []int32{1, 2},
		OwnedPos: []geometry.Vec2{{X: 1}, {X: 2}},
		GhostIDs: []int32{0}, // vertex 3 is adjacent but not ghosted
		GhostPos: []geometry.Vec2{{X: 0}},
	}
	start, slot, w := d.Adjacency(g)
	if w != nil {
		t.Fatalf("unit-weight graph resolved arc weights %v, want nil", w)
	}
	if want := []int32{0, 2, 4}; !slices.Equal(start, want) {
		t.Fatalf("start %v, want %v", start, want)
	}
	// 1 -> {0 (ghost 0), 2 (owned 1)}; 2 -> {1 (owned 0), 3 (remote)}.
	if want := []int32{2, 1, 0, -1}; !slices.Equal(slot, want) {
		t.Fatalf("slot %v, want %v", slot, want)
	}
	for i, id := range d.OwnedIDs {
		if !d.Owns(id) {
			t.Fatalf("Owns(%d) = false for an owned vertex", id)
		}
		if p, ok := d.PosOf(id); !ok || p != d.OwnedPos[i] {
			t.Fatalf("PosOf(%d) = %v, %v; want %v", id, p, ok, d.OwnedPos[i])
		}
	}
	if d.Owns(0) {
		t.Fatal("Owns(0) = true for a ghost")
	}
	if p, ok := d.PosOf(0); !ok || p != d.GhostPos[0] {
		t.Fatalf("PosOf(0) = %v, %v; want the ghost coordinate", p, ok)
	}
	if _, ok := d.PosOf(3); ok || d.Owns(3) {
		t.Fatal("vertex 3 is neither owned nor ghosted here")
	}
}

// TestSplitCoordsWorkersBitIdentical: the host-parallel split produces
// identical views at every GOMAXPROCS, its width (run it under -race to
// check the chunks share nothing they write).
func TestSplitCoordsWorkersBitIdentical(t *testing.T) {
	g := withIsolated(gen.DelaunayRandom(40000, 5), 40, false)
	for _, p := range []int{1, 7, 64} {
		var ref []*Distributed
		for _, w := range []int{1, 2, 8} {
			views := func() []*Distributed {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
				return SplitCoords(g.G, g.Coords, p)
			}()
			if ref == nil {
				ref = views
				continue
			}
			if !reflect.DeepEqual(views, ref) {
				t.Fatalf("P=%d: views at %d workers differ from one worker's", p, w)
			}
		}
	}
}

// TestSplitCoordsSteadyStateAllocs guards the map-free split: a call
// allocates a fixed set of host arrays plus the five objects of each
// view (the Distributed, its adjacency offsets and slots, its ghost ids
// and coordinates). A per-rank map, or per-rank slices grown by append,
// adds allocations per rank and trips the bound.
func TestSplitCoordsSteadyStateAllocs(t *testing.T) {
	const p = 256
	g := gen.DelaunayRandom(20000, 9)
	SplitCoords(g.G, g.Coords, p) // warm the pools
	allocs := testing.AllocsPerRun(5, func() { SplitCoords(g.G, g.Coords, p) })
	if bound := float64(5*p + 128); allocs > bound {
		t.Errorf("SplitCoords at P=%d: %.0f allocations per call, want at most %.0f", p, allocs, bound)
	}
	t.Logf("SplitCoords at P=%d: %.0f allocations per call", p, allocs)
}

// PosOf returns the coordinate of an owned or ghost vertex.
func (d *Distributed) PosOf(id int32) (geometry.Vec2, bool) {
	if li, ok := d.LocalSlot(id); ok {
		return d.OwnedPos[li], true
	}
	if gi, ok := d.GhostSlot(id); ok {
		return d.GhostPos[gi], true
	}
	return geometry.Vec2{}, false
}

// Owns reports whether id is owned by this rank.
func (d *Distributed) Owns(id int32) bool {
	_, ok := d.LocalSlot(id)
	return ok
}
