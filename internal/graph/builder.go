package graph

import "fmt"

// Builder accumulates undirected edges and produces a validated CSR
// Graph. Duplicate edges are merged (summing weights) and self-loops
// are dropped, so generators can add edges carelessly.
type Builder struct {
	n     int
	us    []int32
	vs    []int32
	ws    []int32
	vwgt  []int32
	wsAny bool // true if any non-unit edge weight was added
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// NumVertices returns the vertex count the builder was created with.
func (b *Builder) NumVertices() int { return b.n }

// AddEdge records the undirected unit-weight edge {u, v}. Self-loops
// are ignored. Panics if either endpoint is out of range.
func (b *Builder) AddEdge(u, v int32) { b.AddWeightedEdge(u, v, 1) }

// AddWeightedEdge records the undirected edge {u, v} with weight w.
// Adding the same pair again accumulates weight.
func (b *Builder) AddWeightedEdge(u, v int32, w int32) {
	if u < 0 || int(u) >= b.n || v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	if u > v {
		u, v = v, u
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.ws = append(b.ws, w)
	if w != 1 {
		b.wsAny = true
	}
}

// SetVertexWeight assigns weight w to vertex v (default 1).
func (b *Builder) SetVertexWeight(v int32, w int32) {
	if b.vwgt == nil {
		b.vwgt = make([]int32, b.n)
		for i := range b.vwgt {
			b.vwgt[i] = 1
		}
	}
	b.vwgt[v] = w
}
