package embed

import (
	"math"
	"math/rand"

	"repro/internal/coarsen"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/hostpar"
	"repro/internal/quadtree"
)

// SeqOptions configures the sequential multilevel force-directed
// layout, whose forces are DefaultForceParams.
type SeqOptions struct {
	IterCoarsest int // iterations at the coarsest level, default 200
	IterSmooth   int // iterations at finer levels, default 50
	Seed         int64
}

const (
	seqTheta        = 0.85 // Barnes–Hut opening criterion
	seqCoarsestSize = 400  // coarsening stops at this many vertices
)

func (o SeqOptions) withDefaults() SeqOptions {
	if o.IterCoarsest == 0 {
		o.IterCoarsest = 200
	}
	if o.IterSmooth == 0 {
		o.IterSmooth = 50
	}
	return o
}

// SequentialLayout embeds g in the plane with the multilevel
// force-directed scheme of Hu (2006): coarsen with heavy-edge matching,
// lay out the coarsest graph from random positions, then repeatedly
// interpolate to the next finer level and smooth with Barnes–Hut
// approximated forces. It is the stand-in for the Mathematica embedder
// the paper uses to give coordinates to RCB and the sequential
// geometric partitioners.
func SequentialLayout(g *graph.Graph, opt SeqOptions) []geometry.Vec2 {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	h := coarsen.BuildHierarchy(g, 1, coarsen.Options{
		CoarsestSize:  seqCoarsestSize,
		StepsPerLevel: 1,
		Seed:          opt.Seed,
	})
	levels := h.Levels
	coarsest := levels[len(levels)-1].G
	// Random initial positions in a box sized for ~K spacing.
	fp := DefaultForceParams()
	side := fp.K * math.Sqrt(float64(coarsest.NumVertices()))
	pos := make([]geometry.Vec2, coarsest.NumVertices())
	for i := range pos {
		pos[i] = geometry.Vec2{X: rng.Float64() * side, Y: rng.Float64() * side}
	}
	smoothLevel(coarsest, pos, opt.IterCoarsest)
	for li := len(levels) - 2; li >= 0; li-- {
		fine := levels[li]
		finePos := make([]geometry.Vec2, fine.G.NumVertices())
		for v := range finePos {
			cv := fine.ToCoarse[v]
			// Interpolate: coarse position scaled ×2 plus jitter.
			j := geometry.Vec2{X: rng.Float64() - 0.5, Y: rng.Float64() - 0.5}.Scale(0.5 * fp.K)
			finePos[v] = pos[cv].Scale(2).Add(j)
		}
		pos = finePos
		smoothLevel(fine.G, pos, opt.IterSmooth)
	}
	return pos
}

// smoothLevel runs force iterations with Barnes–Hut repulsion. The
// force pass runs chunked on the hostpar pool over the tree's point
// order, eight points to a RepulsionGroup (the tree is read-only there
// and forces[v] is written by exactly one chunk), and the energy is
// reduced serially in vertex order from the stored forces, so positions
// are bit-identical for every worker count. One tree arena is reused
// across iterations and the chunk bodies are hoisted out of the loop,
// so steady state allocates nothing.
func smoothLevel(g *graph.Graph, pos []geometry.Vec2, iters int) {
	n := g.NumVertices()
	if n <= 1 {
		return
	}
	mass := make([]float64, n)
	for v := 0; v < n; v++ {
		mass[v] = float64(g.VertexWeight(int32(v)))
	}
	fp := DefaultForceParams()
	ctl := NewStepController(fp.K)
	ck2 := fp.C * fp.K * fp.K
	forces := make([]geometry.Vec2, n)
	var tree quadtree.Tree
	forceBody := func(_, lo, hi int) {
		cur := graph.GetCursor(g)
		defer cur.Release()
		order := tree.Order()
		var grp quadtree.Group
		for k := lo; k < hi; k += quadtree.GroupLanes {
			lanes := order[k:min(k+quadtree.GroupLanes, hi)]
			grp.Reset()
			for _, v := range lanes {
				grp.Add(pos[v], v, mass[v], geometry.Vec2{})
			}
			tree.RepulsionGroup(&grp, seqTheta, ck2)
			for l, v := range lanes {
				p, f := pos[v], grp.Acc(l)
				nbrs, wgts := cur.Arcs(v)
				for j, w := range nbrs {
					f = f.Add(fp.Attractive(p, pos[w]).Scale(float64(wgts[j])))
				}
				forces[v] = f
			}
		}
	}
	updateBody := func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			norm := forces[v].Norm()
			if norm < 1e-12 {
				continue
			}
			pos[v] = pos[v].Add(forces[v].Scale(ctl.Step / norm))
		}
	}
	for it := 0; it < iters; it++ {
		tree.Rebuild(pos, mass)
		hostpar.ForChunked(n, grainForce, forceBody)
		energy := 0.0
		for v := 0; v < n; v++ {
			energy += forces[v].Dot(forces[v])
		}
		hostpar.ForChunked(n, grainCopy, updateBody)
		ctl.Update(energy)
		if ctl.Step < 1e-3*fp.K {
			break
		}
	}
}
