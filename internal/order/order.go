// Package order derives the two classic downstream products of a graph
// partitioner: vertex separators (from edge separators, via König
// matching on the cut's bipartite graph) and nested-dissection
// fill-reducing orderings, built by recursive application of ScalaPart.
package order

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
)

// VertexSeparator converts a bisection's edge separator into a small
// vertex separator: a set of vertices whose removal disconnects the two
// sides. The cut edges form a bipartite graph; by König's theorem its
// minimum vertex cover equals its maximum matching, computed here with
// the standard augmenting-path algorithm. The returned labels are
// 0/1 for the two sides and 2 for separator vertices.
func VertexSeparator(g *graph.Graph, part []int32) []int32 {
	sep := graph.SeparatorEdges(g, part)
	// Collect the distinct endpoints per side.
	leftIdx := make(map[int32]int32)
	rightIdx := make(map[int32]int32)
	var left, right []int32
	for _, e := range sep {
		u, v := e[0], e[1]
		if part[u] != 0 {
			u, v = v, u
		}
		if _, ok := leftIdx[u]; !ok {
			leftIdx[u] = int32(len(left))
			left = append(left, u)
		}
		if _, ok := rightIdx[v]; !ok {
			rightIdx[v] = int32(len(right))
			right = append(right, v)
		}
	}
	adj := make([][]int32, len(left))
	for _, e := range sep {
		u, v := e[0], e[1]
		if part[u] != 0 {
			u, v = v, u
		}
		li, ri := leftIdx[u], rightIdx[v]
		adj[li] = append(adj[li], ri)
	}
	// Hopcroft–Karp-lite: repeated augmenting DFS (König needs only the
	// matching and the alternating reachability).
	matchL := make([]int32, len(left))
	matchR := make([]int32, len(right))
	for i := range matchL {
		matchL[i] = -1
	}
	for i := range matchR {
		matchR[i] = -1
	}
	var visited []bool
	var augment func(l int32) bool
	augment = func(l int32) bool {
		for _, r := range adj[l] {
			if visited[r] {
				continue
			}
			visited[r] = true
			if matchR[r] < 0 || augment(matchR[r]) {
				matchL[l] = r
				matchR[r] = l
				return true
			}
		}
		return false
	}
	for l := range adj {
		visited = make([]bool, len(right))
		augment(int32(l))
	}
	// König: cover = (left not reachable) ∪ (right reachable) from
	// unmatched left vertices along alternating paths.
	reachL := make([]bool, len(left))
	reachR := make([]bool, len(right))
	var stack []int32
	for l := range adj {
		if matchL[l] < 0 {
			reachL[l] = true
			stack = append(stack, int32(l))
		}
	}
	for len(stack) > 0 {
		l := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, r := range adj[l] {
			if reachR[r] {
				continue
			}
			reachR[r] = true
			if ml := matchR[r]; ml >= 0 && !reachL[ml] {
				reachL[ml] = true
				stack = append(stack, ml)
			}
		}
	}
	labels := append([]int32(nil), part...)
	for i, v := range left {
		if !reachL[i] {
			labels[v] = 2
		}
	}
	for i, v := range right {
		if reachR[i] {
			labels[v] = 2
		}
	}
	return labels
}

// NestedDissection computes a fill-reducing elimination ordering by
// recursive bisection: partition, extract the vertex separator, recurse
// on the two sides, and number separator vertices last. Small
// subproblems fall back to a minimum-degree-flavoured greedy ordering.
// p is the simulated rank budget for the top-level bisection; opt seeds
// ScalaPart. It returns perm with perm[i] = the vertex eliminated at
// step i. A world size below one, or a bisection whose ranks fail,
// returns an error.
func NestedDissection(g *graph.Graph, p int, opt core.Options) ([]int32, error) {
	if p < 1 {
		return nil, fmt.Errorf("order: world size p=%d, want at least 1", p)
	}
	perm := make([]int32, 0, g.NumVertices())
	all := make([]int32, g.NumVertices())
	for i := range all {
		all[i] = int32(i)
	}
	if err := nd(g, all, p, opt, &perm); err != nil {
		return nil, err
	}
	return perm, nil
}

const ndLeafSize = 64

func nd(g *graph.Graph, vertices []int32, p int, opt core.Options, perm *[]int32) error {
	if len(vertices) <= ndLeafSize {
		leaf, back := graph.InducedSubgraph(g, vertices)
		for _, v := range minDegreeOrder(leaf) {
			*perm = append(*perm, back[v])
		}
		return nil
	}
	sub, back := graph.InducedSubgraph(g, vertices)
	res, err := core.PartitionChecked(sub, p, opt)
	if err != nil {
		return err
	}
	labels := VertexSeparator(sub, res.Part)
	var lo, hi, sep []int32
	for v, l := range labels {
		gid := back[v]
		switch l {
		case 0:
			lo = append(lo, gid)
		case 1:
			hi = append(hi, gid)
		default:
			sep = append(sep, gid)
		}
	}
	// Degenerate split (e.g. everything became separator): fall back.
	if len(lo) == 0 || len(hi) == 0 {
		leaf, back2 := graph.InducedSubgraph(g, vertices)
		for _, v := range minDegreeOrder(leaf) {
			*perm = append(*perm, back2[v])
		}
		return nil
	}
	half := p / 2
	if half < 1 {
		half = 1
	}
	if err := nd(g, lo, half, opt, perm); err != nil {
		return err
	}
	if err := nd(g, hi, half, opt, perm); err != nil {
		return err
	}
	*perm = append(*perm, sep...)
	return nil
}

// minDegreeOrder is a greedy minimum-degree elimination order on a
// small graph (degrees are not updated with fill, which is adequate for
// leaf blocks).
func minDegreeOrder(g *graph.Graph) []int32 {
	n := g.NumVertices()
	order := make([]int32, 0, n)
	eliminated := make([]bool, n)
	deg := make([]int, n)
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
	}
	for len(order) < n {
		best, bestDeg := int32(-1), 1<<30
		for v := 0; v < n; v++ {
			if !eliminated[v] && deg[v] < bestDeg {
				best, bestDeg = int32(v), deg[v]
			}
		}
		eliminated[best] = true
		order = append(order, best)
		for _, nb := range g.Neighbors(best) {
			deg[nb]--
		}
	}
	return order
}

// FillIn estimates the Cholesky fill of an ordering by symbolic
// elimination, returning the number of non-zeros below the diagonal of
// the factor. Row structures are merged up the elimination tree, so the
// cost is proportional to the fill itself.
func FillIn(g *graph.Graph, perm []int32) int64 {
	n := g.NumVertices()
	pos := make([]int32, n)
	for i, v := range perm {
		pos[v] = int32(i)
	}
	rows := make([]map[int32]struct{}, n)
	children := make([][]int32, n)
	var fill int64
	for i := 0; i < n; i++ {
		v := perm[i]
		row := make(map[int32]struct{})
		for _, nb := range g.Neighbors(v) {
			if pos[nb] > int32(i) {
				row[nb] = struct{}{}
			}
		}
		for _, c := range children[v] {
			for u := range rows[c] {
				if pos[u] > int32(i) {
					row[u] = struct{}{}
				}
			}
			rows[c] = nil // free merged rows
		}
		fill += int64(len(row))
		rows[v] = row
		// Parent in the elimination tree: the earliest-eliminated
		// member of this row.
		var par int32 = -1
		for u := range row {
			if par < 0 || pos[u] < pos[par] {
				par = u
			}
		}
		if par >= 0 {
			children[par] = append(children[par], v)
		}
	}
	return fill
}
