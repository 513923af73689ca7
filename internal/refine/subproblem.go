package refine

import "repro/internal/graph"

// Solve runs FM over the free vertices of g and reports which of them
// moved: it builds the subproblem, runs it, and diffs the final sides
// against the starting ones. sideOf must return the current side (0 or
// 1) for any free vertex and for any neighbour of a free vertex. The
// flips come in free order, and SideW carries the updated global side
// weights. Every FM caller solves through here: the distributed rounds
// (SolveFreeSet), Pt-Scotch's band FM and the baselines' coarsest
// polish.
func Solve(g *graph.Graph, free []int32, sideOf func(int32) int8, sideW [2]int64, totalW int64, tol float64, passes int) FreeSetResult {
	prob, ids := buildSubproblem(g, free, sideOf, sideW, totalW, tol, passes)
	before := append([]int8(nil), prob.Side...)
	out := FreeSetResult{Gain: prob.Run(), Free: len(free)}
	for i, id := range ids {
		if prob.Side[i] != before[i] {
			out.Flips = append(out.Flips, id)
		}
	}
	out.SideW = prob.SideW
	return out
}

// buildSubproblem assembles an FM Problem over the free vertices of g.
// sideOf must return the current side (0 or 1) for any free vertex and
// for any neighbour of a free vertex; neighbours that are not free are
// folded into the locked external weights. It returns the problem and
// the vertex ids aligned with problem indices.
func buildSubproblem(g *graph.Graph, free []int32, sideOf func(int32) int8, sideW [2]int64, totalW int64, tol float64, passes int) (*Problem, []int32) {
	if len(free) == 0 {
		// Empty free set: a runnable zero-vertex problem, with no map,
		// cursor, or per-vertex allocations.
		return &Problem{SideW: sideW, TotalW: totalW, Tol: tol, MaxPasses: passes}, nil
	}
	local := make(map[int32]int32, len(free))
	totalDeg := 0
	for i, id := range free {
		local[id] = int32(i)
		totalDeg += int(g.XAdj[id+1] - g.XAdj[id])
	}
	p := &Problem{
		Adj:       make([][]Arc, len(free)),
		Ext:       make([][2]int64, len(free)),
		VW:        make([]int64, len(free)),
		Side:      make([]int8, len(free)),
		SideW:     sideW,
		TotalW:    totalW,
		Tol:       tol,
		MaxPasses: passes,
	}
	// All per-vertex arc lists live in one flat backing presized to the
	// free set's total degree (an upper bound on internal arcs), so
	// assembly never reallocates and the lists stay cache-adjacent.
	arcs := make([]Arc, 0, totalDeg)
	cur := graph.GetCursor(g)
	defer cur.Release()
	for i, id := range free {
		p.VW[i] = int64(g.VertexWeight(id))
		p.Side[i] = sideOf(id)
		start := len(arcs)
		nbrs, wgts := cur.Arcs(id)
		for k, nb := range nbrs {
			w := int64(wgts[k])
			if li, ok := local[nb]; ok {
				arcs = append(arcs, Arc{To: li, W: w})
			} else {
				p.Ext[i][sideOf(nb)] += w
			}
		}
		p.Adj[i] = arcs[start:len(arcs):len(arcs)]
	}
	ids := append([]int32(nil), free...)
	return p, ids
}
