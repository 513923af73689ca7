// Package gen generates the synthetic test graphs this reproduction
// uses in place of the UFL sparse-matrix collection: structural
// analogues of the paper's nine test graphs (Table 1) plus generic
// generators (grids, Delaunay meshes, random geometric graphs, R-MAT,
// preferential attachment) for tests.
//
// Every generator is deterministic for a given seed. Graphs that come
// from a geometric construction also carry their natural coordinates;
// partitioners that require coordinates (RCB, G30/G7) receive either
// these or a force-directed embedding, mirroring the paper's use of
// Hu's Mathematica embedder for coordinate-free graphs.
package gen

import (
	"math/rand"

	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/hostpar"
)

// Generated bundles a graph with its name and optional natural
// coordinates.
type Generated struct {
	Name   string
	G      *graph.Graph
	Coords []geometry.Vec2 // natural coordinates; nil when none exist
}

// mortonRelabel renumbers the vertices of g along a Z-order curve of
// their coordinates, the locality-preserving ordering mesh files in the
// wild have (and which block distribution over ranks relies on). It
// returns the relabelled graph and coordinates.
func mortonRelabel(g *graph.Graph, coords []geometry.Vec2) (*graph.Graph, []geometry.Vec2) {
	order := mortonOrder(coords) // order[i] = old id at new position i
	newID := make([]int32, g.NumVertices())
	hostpar.For(len(order), relabelGrain, func(pos int) {
		newID[order[pos]] = int32(pos)
	})
	b := graph.NewBuilder(g.NumVertices())
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for k := g.XAdj[u]; k < g.XAdj[u+1]; k++ {
			v := g.Adjncy[k]
			if u < v {
				b.AddWeightedEdge(newID[u], newID[v], g.ArcWeight(k))
			}
		}
	}
	out := b.Build()
	if g.EWgt == nil {
		out.EWgt = nil
	}
	newCoords := make([]geometry.Vec2, len(coords))
	hostpar.For(len(order), relabelGrain, func(pos int) {
		newCoords[pos] = coords[order[pos]]
	})
	return out, newCoords
}

// relabelGrain keeps the relabelling scatters from forking on the small
// graphs tests generate; suite-scale meshes split across the pool.
const relabelGrain = 8192

// LargestComponent restricts g (and coords, when non-nil) to its
// largest connected component, relabelling vertices densely.
func LargestComponent(g *graph.Graph, coords []geometry.Vec2) (*graph.Graph, []geometry.Vec2) {
	label, count := graph.Components(g)
	if count <= 1 {
		return g, coords
	}
	sizes := make([]int, count)
	for _, l := range label {
		sizes[l]++
	}
	best := 0
	for i, s := range sizes {
		if s > sizes[best] {
			best = i
		}
	}
	keep := make([]int32, 0, sizes[best])
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		if label[v] == int32(best) {
			keep = append(keep, v)
		}
	}
	sub, back := graph.InducedSubgraph(g, keep)
	var subCoords []geometry.Vec2
	if coords != nil {
		subCoords = make([]geometry.Vec2, len(back))
		for i, v := range back {
			subCoords[i] = coords[v]
		}
	}
	return sub, subCoords
}

// Grid2D builds the rows×cols 5-point-stencil grid graph with unit
// spacing coordinates — the structure of the paper's ecology graphs.
func Grid2D(rows, cols int) *Generated {
	n := rows * cols
	b := graph.NewBuilder(n)
	coords := make([]geometry.Vec2, n)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			coords[id(r, c)] = geometry.Vec2{X: float64(c), Y: float64(r)}
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return &Generated{Name: "grid2d", G: b.Build(), Coords: coords}
}

// DelaunayRandom builds the Delaunay triangulation of n uniformly
// random points in the unit square — the structure of the paper's
// delaunay_n* graphs.
func DelaunayRandom(n int, seed int64) *Generated {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geometry.Vec2, n)
	for i := range pts {
		pts[i] = geometry.Vec2{X: rng.Float64(), Y: rng.Float64()}
	}
	return buildMesh(meshInput{name: "delaunay", pts: pts})
}

// Circuit builds a circuit-simulation-style graph: a rows×cols grid
// backbone with short local "via" edges and a sparse set of long wires,
// echoing the mildly non-planar irregularity of G3_circuit.
func Circuit(rows, cols int, seed int64) *Generated {
	base := Grid2D(rows, cols)
	n := base.G.NumVertices()
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := int32(0); u < int32(n); u++ {
		for _, v := range base.G.Neighbors(u) {
			if u < v {
				b.AddEdge(u, v)
			}
		}
	}
	// Local shorts: ~12% of vertices connect to a random vertex within
	// Chebyshev distance 6.
	for v := 0; v < n; v++ {
		if rng.Float64() > 0.12 {
			continue
		}
		r, c := v/cols, v%cols
		dr := rng.Intn(13) - 6
		dc := rng.Intn(13) - 6
		rr, cc := r+dr, c+dc
		if rr < 0 || rr >= rows || cc < 0 || cc >= cols {
			continue
		}
		b.AddEdge(int32(v), int32(rr*cols+cc))
	}
	// A few long wires (power/clock nets).
	for k := 0; k < n/400; k++ {
		b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
	}
	g, coords := LargestComponent(b.Build(), base.Coords)
	return &Generated{Name: "circuit", G: g, Coords: coords}
}

// BarabasiAlbert builds a preferential-attachment graph: each new
// vertex attaches to m existing vertices chosen proportionally to
// degree, giving the heavy-tailed hub structure of infrastructure
// networks. Edges stream straight into graph.BuildStreamed — no
// builder staging list is materialised.
func BarabasiAlbert(n, m int, seed int64) *graph.Graph {
	if n < m+1 {
		panic("gen: BarabasiAlbert needs n > m")
	}
	return graph.BuildStreamed(n, baEmit(n, m, seed))
}

// baEmit is the BarabasiAlbert edge stream. Each invocation replays
// the identical attachment process from the seed, as BuildStreamed's
// two passes require.
func baEmit(n, m int, seed int64) func(add func(u, v, w int32)) {
	return func(add func(u, v, w int32)) {
		rng := rand.New(rand.NewSource(seed))
		// Repeated-endpoint list: sampling uniformly from it is sampling
		// proportionally to degree.
		targets := make([]int32, 0, 2*n*m)
		for v := 0; v < m; v++ {
			add(int32(v), int32(m), 1)
			targets = append(targets, int32(v), int32(m))
		}
		chosen := make(map[int32]struct{}, m)
		picks := make([]int32, 0, m)
		for v := m + 1; v < n; v++ {
			clear(chosen)
			picks = picks[:0]
			for len(chosen) < m {
				t := targets[rng.Intn(len(targets))]
				if _, dup := chosen[t]; dup {
					continue
				}
				chosen[t] = struct{}{}
				picks = append(picks, t)
			}
			// Attach in draw order, not map order: ranging over the set made
			// the target list — and so every later degree-proportional draw,
			// hence the whole graph — differ from run to run.
			for _, t := range picks {
				add(int32(v), t, 1)
				targets = append(targets, int32(v), t)
			}
		}
	}
}

// KKTPower builds a KKT-system graph over a power-network base, the
// structure of kkt_power: primal vertices form a hub-heavy
// preferential-attachment network, and every base edge contributes a
// constraint (dual) vertex connected to its two endpoints. Around a
// third of the vertices are primal; there are no natural coordinates.
// nApprox is the approximate total vertex count.
func KKTPower(nApprox int, seed int64) *Generated {
	nb := nApprox / 3
	if nb < 8 {
		nb = 8
	}
	base := BarabasiAlbert(nb, 2, seed)
	mb := base.NumEdges()
	n := nb + mb
	return &Generated{Name: "kkt_power", G: graph.BuildStreamed(n, kktEmit(base, nb))}
}

// kktEmit streams the KKT construction over a fixed base graph:
// deterministic by construction (no RNG), so BuildStreamed can replay
// it.
func kktEmit(base *graph.Graph, nb int) func(add func(u, v, w int32)) {
	return func(add func(u, v, w int32)) {
		cur := graph.GetCursor(base)
		defer cur.Release()
		next := int32(nb)
		for u := int32(0); u < int32(nb); u++ {
			nbrs, _ := cur.Arcs(u)
			for _, v := range nbrs {
				if u < v {
					add(u, v, 1)
					add(u, next, 1)
					add(v, next, 1)
					next++
				}
			}
		}
	}
}

// RandomGeometric builds a random geometric graph: n uniform points in
// the unit square, an edge between every pair within distance radius.
// Grid bucketing keeps construction O(n) for radius ~ sqrt(c/n).
func RandomGeometric(n int, radius float64, seed int64) *Generated {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geometry.Vec2, n)
	for i := range pts {
		pts[i] = geometry.Vec2{X: rng.Float64(), Y: rng.Float64()}
	}
	cells := int(1 / radius)
	if cells < 1 {
		cells = 1
	}
	bucket := make(map[int][]int32)
	cellOf := func(p geometry.Vec2) (int, int) {
		cx := int(p.X * float64(cells))
		cy := int(p.Y * float64(cells))
		if cx >= cells {
			cx = cells - 1
		}
		if cy >= cells {
			cy = cells - 1
		}
		return cx, cy
	}
	for i, p := range pts {
		cx, cy := cellOf(p)
		bucket[cx*cells+cy] = append(bucket[cx*cells+cy], int32(i))
	}
	b := graph.NewBuilder(n)
	r2 := radius * radius
	for i, p := range pts {
		cx, cy := cellOf(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				nx, ny := cx+dx, cy+dy
				if nx < 0 || nx >= cells || ny < 0 || ny >= cells {
					continue
				}
				for _, j := range bucket[nx*cells+ny] {
					if int32(i) < j {
						d := p.Sub(pts[j])
						if d.Dot(d) <= r2 {
							b.AddEdge(int32(i), j)
						}
					}
				}
			}
		}
	}
	g, coords := LargestComponent(b.Build(), pts)
	g, coords = mortonRelabel(g, coords)
	return &Generated{Name: "rgg", G: g, Coords: coords}
}
