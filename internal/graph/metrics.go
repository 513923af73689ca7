package graph

import "fmt"

// CutSize returns the total weight of edges whose endpoints lie in
// different parts. part must assign a part id to every vertex.
func CutSize(g *Graph, part []int32) int64 {
	if len(part) != g.NumVertices() {
		panic(fmt.Sprintf("graph: CutSize: len(part)=%d want %d", len(part), g.NumVertices()))
	}
	cur := GetCursor(g)
	defer cur.Release()
	var cut int64
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		nbrs, wgts := cur.Arcs(u)
		for i, v := range nbrs {
			if u < v && part[u] != part[v] {
				cut += int64(wgts[i])
			}
		}
	}
	return cut
}

// PartWeights returns the total vertex weight in each of k parts.
func PartWeights(g *Graph, part []int32, k int) []int64 {
	w := make([]int64, k)
	for v := int32(0); v < int32(g.NumVertices()); v++ {
		p := part[v]
		if p < 0 || int(p) >= k {
			panic(fmt.Sprintf("graph: PartWeights: part[%d]=%d out of range", v, p))
		}
		w[p] += int64(g.VertexWeight(v))
	}
	return w
}

// Imbalance returns max_i(k * w_i / W) - 1 for a k-way partition: 0 for
// perfectly balanced, 0.05 for 5% over the ideal part weight. The k=2
// case delegates to Imbalance2, the single definition every bisection
// accept path shares.
func Imbalance(g *Graph, part []int32, k int) float64 {
	w := PartWeights(g, part, k)
	if k == 2 {
		return Imbalance2(w[0], w[1])
	}
	total := int64(0)
	for _, wi := range w {
		total += wi
	}
	if total == 0 {
		return 0
	}
	mx := int64(0)
	for _, wi := range w {
		if wi > mx {
			mx = wi
		}
	}
	return float64(k)*float64(mx)/float64(total) - 1
}

// Imbalance2 is the canonical bisection imbalance from side weights:
// 2·max(w0,w1)/(w0+w1) − 1, and 0 for an empty graph. Both the
// geometric partitioner's accept paths and the metrics layer use
// exactly this definition, so cached and recomputed imbalances compare
// bit-identically.
func Imbalance2(w0, w1 int64) float64 {
	total := w0 + w1
	if total == 0 {
		return 0
	}
	mx := w0
	if w1 > mx {
		mx = w1
	}
	return 2*float64(mx)/float64(total) - 1
}

// SeparatorEdges returns the Adjncy-ordered list of (u,v) pairs with
// u < v crossing the bisection, i.e. the edge separator S of the paper.
func SeparatorEdges(g *Graph, part []int32) [][2]int32 {
	cur := GetCursor(g)
	defer cur.Release()
	var sep [][2]int32
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		nbrs, _ := cur.Arcs(u)
		for _, v := range nbrs {
			if u < v && part[u] != part[v] {
				sep = append(sep, [2]int32{u, v})
			}
		}
	}
	return sep
}

// Components labels the connected components of g, returning the label
// array and the number of components. Labels are dense in [0, count).
func Components(g *Graph) (label []int32, count int) {
	n := g.NumVertices()
	label = make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	cur := GetCursor(g)
	defer cur.Release()
	var stack []int32
	for s := int32(0); s < int32(n); s++ {
		if label[s] >= 0 {
			continue
		}
		id := int32(count)
		count++
		label[s] = id
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nbrs, _ := cur.Arcs(u)
			for _, v := range nbrs {
				if label[v] < 0 {
					label[v] = id
					stack = append(stack, v)
				}
			}
		}
	}
	return label, count
}

// InducedSubgraph extracts the subgraph on the given vertices. It
// returns the subgraph (with weights inherited) and the mapping from
// subgraph vertex ids back to ids in g. Edges leaving the vertex set
// are dropped.
func InducedSubgraph(g *Graph, vertices []int32) (*Graph, []int32) {
	toLocal := make(map[int32]int32, len(vertices))
	for i, v := range vertices {
		toLocal[v] = int32(i)
	}
	cur := GetCursor(g)
	defer cur.Release()
	b := NewBuilder(len(vertices))
	for i, v := range vertices {
		if g.VWgt != nil {
			b.SetVertexWeight(int32(i), g.VWgt[v])
		}
		nbrs, wgts := cur.Arcs(v)
		for k, w := range nbrs {
			if lw, ok := toLocal[w]; ok && v < w {
				b.AddWeightedEdge(int32(i), lw, wgts[k])
			}
		}
	}
	back := append([]int32(nil), vertices...)
	return b.Build(), back
}
