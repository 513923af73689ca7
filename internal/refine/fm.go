// Package refine implements Fiduccia–Mattheyses two-way refinement and
// the coordinate-strip extraction ScalaPart applies around a geometric
// separator (Figure 2 of the paper). The FM engine operates on an
// explicit subproblem so it can refine a full graph, a strip with
// locked surroundings, or a baseline's band graph uniformly.
package refine

// BalanceTol is the accepted imbalance of every bisection in the
// repository: the heavier side may hold at most (1+BalanceTol)·W/2 of
// the total vertex weight W. ScalaPart, the geometric partitioners and
// both baselines are compared at this one target, as in the paper.
const BalanceTol = 0.05

// Arc is one internal adjacency entry of a Problem.
type Arc struct {
	To int32
	W  int64
}

// Problem is a two-way refinement instance. Vertices 0..N-1 are free to
// move; edges leaving the instance are folded into Ext as locked
// terminal weights. SideW tracks the side weights of the *global*
// partition (including weight outside the instance), so balance is
// enforced globally even when the instance is a thin strip. Adj is
// symmetric and loop-free, as every graph.Graph is: each internal edge
// is an arc in both of its ends' lists, with one weight.
type Problem struct {
	Adj  [][]Arc    // internal adjacency
	Ext  [][2]int64 // locked external edge weight to side 0 / side 1
	VW   []int64    // vertex weights
	Side []int8     // current side of each vertex; updated in place

	SideW  [2]int64 // global side weights, updated in place
	TotalW int64    // total global vertex weight
	Tol    float64  // allowed imbalance: max side ≤ (1+Tol)·TotalW/2

	MaxPasses int // default 4
}

// item is a heap entry with lazy invalidation.
type item struct {
	v     int32
	gain  int64
	stamp int64
}

// gainHeap is a max-heap on gain with hand-rolled sift operations: the
// container/heap interface boxes every Push/Pop through `any`, which
// costs one heap allocation per operation — on a strip with thousands
// of free vertices that dominated the refinement's allocation profile.
// up/down replicate container/heap's algorithm exactly (same child
// choice, same strict comparison), so the pop order — and therefore
// the FM move sequence — is unchanged.
type gainHeap []item

func (h gainHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].gain > h[i].gain) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h gainHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].gain > h[j1].gain {
			j = j2 // = 2*i + 2  // right child
		}
		if !(h[j].gain > h[i].gain) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h gainHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *gainHeap) push(it item) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *gainHeap) pop() item {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	it := old[n]
	*h = old[:n]
	return it
}

// Run performs FM passes until a pass yields no improvement, returning
// the total cut weight reduction. Each pass tentatively moves every
// vertex at most once in best-gain order (subject to balance) and rolls
// back to the best prefix.
//
// A pass stops early once reach, an upper bound on the running gain of
// every later prefix, falls to best: no later prefix can then strictly
// beat the best one, so the roll-back, the gain and the next pass's
// sides are those of the full pass. reach is the pass-start cut C₀ less
// the cut weight F of the terms already fixed for the rest of the pass
// (arcs between two moved vertices and a moved vertex's Ext terminals)
// and less the negative weight N of every other term, each of which
// adds at least min(0, w) to any later cut. DESIGN.md has the proof.
func (p *Problem) Run() int64 {
	n := len(p.Adj)
	if n == 0 {
		return 0
	}
	passes := p.MaxPasses
	if passes == 0 {
		passes = 4
	}
	var total int64
	gains := make([]int64, n)
	stamp := make([]int64, n)
	moved := make([]bool, n)
	order := make([]int32, 0, n)
	hbuf := make(gainHeap, 0, n)
	for pass := 0; pass < passes; pass++ {
		h := hbuf[:0]
		// reach starts at C₀ − N. The arc terms count every internal
		// edge twice, once from each end, so their sum halves exactly.
		var reach, arcs int64
		for v := 0; v < n; v++ {
			moved[v] = false
			s := p.Side[v]
			e := p.Ext[v]
			g := e[1-s] - e[s]
			reach += e[1-s] - min(0, e[0]) - min(0, e[1])
			for _, a := range p.Adj[v] {
				if p.Side[a.To] == s {
					g -= a.W
				} else {
					g += a.W
					arcs += a.W
				}
				arcs -= min(0, a.W)
			}
			gains[v] = g
			stamp[v]++
			h = append(h, item{v: int32(v), gain: g, stamp: stamp[v]})
		}
		reach += arcs / 2
		h.init()
		order = order[:0]
		var running, best int64
		bestIdx := 0
		limit := int64(float64(p.TotalW) * (1 + p.Tol) / 2)
		for len(h) > 0 && reach > best {
			it := h.pop()
			v := it.v
			if moved[v] || it.stamp != stamp[v] {
				continue
			}
			s := p.Side[v]
			// Balance feasibility of moving v to side 1-s.
			if p.SideW[1-s]+p.VW[v] > limit {
				// Re-queue is pointless within this pass (the move can
				// only become feasible if others move the other way);
				// leave it unmoved unless the move improves balance.
				if p.SideW[1-s] >= p.SideW[s] {
					continue
				}
			}
			moved[v] = true
			p.Side[v] = 1 - s
			p.SideW[s] -= p.VW[v]
			p.SideW[1-s] += p.VW[v]
			running += gains[v]
			order = append(order, v)
			if running > best {
				best = running
				bestIdx = len(order)
			}
			// v is fixed on side 1-s: its terminal to side s stays cut.
			e := p.Ext[v]
			reach -= e[s] - min(0, e[0]) - min(0, e[1])
			for _, a := range p.Adj[v] {
				if moved[a.To] {
					// Both ends are now fixed for the rest of the pass.
					if p.Side[a.To] == s {
						reach -= a.W
					}
					reach += min(0, a.W)
					continue
				}
				// O(1) delta gain update: v just left side s, so the arc
				// (v, a.To) flips its sign in the neighbour's gain — ±2·W
				// depending on which side the neighbour sits on. The delta
				// is exact int64 arithmetic on the same values a full
				// recompute would produce, so the heap sees bit-identical
				// keys and the move sequence is unchanged; only the O(deg)
				// rescan per touched neighbour is gone, which matters on
				// the full-cut boundary where degrees are not strip-thin.
				if p.Side[a.To] == s {
					gains[a.To] += 2 * a.W
				} else {
					gains[a.To] -= 2 * a.W
				}
				stamp[a.To]++
				h.push(item{v: a.To, gain: gains[a.To], stamp: stamp[a.To]})
			}
		}
		hbuf = h // keeps any capacity the pushes grew
		// Roll back past the best prefix.
		for i := len(order) - 1; i >= bestIdx; i-- {
			v := order[i]
			s := p.Side[v]
			p.Side[v] = 1 - s
			p.SideW[s] -= p.VW[v]
			p.SideW[1-s] += p.VW[v]
		}
		total += best
		if best <= 0 {
			break
		}
	}
	return total
}
