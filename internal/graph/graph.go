// Package graph provides the sparse-graph substrate shared by every
// partitioner in this repository: an immutable CSR (compressed sparse
// row) representation of undirected graphs with optional vertex and
// edge weights, a deduplicating builder, partition-quality metrics,
// connectivity, subgraph extraction, METIS and MatrixMarket I/O, and
// block-distribution helpers for the simulated message-passing runtime.
package graph

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/hostpar"
)

// Graph is an undirected graph in CSR form. Adjacency lists store each
// undirected edge {u,v} twice: once under u and once under v. The
// structure is immutable after construction; all partitioners treat a
// *Graph as shared read-only state, which is what makes it safe to hand
// the same topology to every simulated rank.
//
// VWgt and EWgt may be nil, meaning unit weights. When present, EWgt is
// aligned with Adjncy (the weight of the k-th directed arc), and the
// two copies of an undirected edge always carry equal weights.
//
// A graph may instead carry its adjacency in compressed form: when
// Packed is non-nil, Adjncy and EWgt are nil and the neighbour lists
// (plus arc weights, when present) live in Packed's varint block
// streams. XAdj and VWgt are always plain. Hot loops consume either
// representation through a Cursor; Compress and Plain convert between
// them without changing modeled results.
type Graph struct {
	XAdj   []int32 // offsets into Adjncy, length NumVertices()+1
	Adjncy []int32 // concatenated adjacency lists, nil when Packed
	VWgt   []int32 // vertex weights, nil for unit
	EWgt   []int32 // arc weights aligned with Adjncy, nil for unit
	Packed *CGraph // compressed adjacency; nil for plain CSR
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.XAdj) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	if len(g.XAdj) == 0 {
		return 0
	}
	return int(g.XAdj[len(g.XAdj)-1]) / 2
}

// Degree returns the number of neighbours of vertex v.
func (g *Graph) Degree(v int32) int {
	return int(g.XAdj[v+1] - g.XAdj[v])
}

// Neighbors returns the adjacency list of v as a shared sub-slice; the
// caller must not modify it. On a compressed graph this decodes a fresh
// slice per call — cold callers stay correct, hot loops should hold a
// Cursor instead.
func (g *Graph) Neighbors(v int32) []int32 {
	if g.Packed != nil {
		cur := GetCursor(g)
		nbrs, _ := cur.Arcs(v)
		out := append([]int32(nil), nbrs...)
		cur.Release()
		return out
	}
	return g.Adjncy[g.XAdj[v]:g.XAdj[v+1]]
}

// VertexWeight returns the weight of v (1 if unweighted).
func (g *Graph) VertexWeight(v int32) int32 {
	if g.VWgt == nil {
		return 1
	}
	return g.VWgt[v]
}

// EdgeWeighted reports whether g carries arc weights, in EWgt or in
// its compressed streams; false means every arc weighs 1.
func (g *Graph) EdgeWeighted() bool {
	return g.EWgt != nil || (g.Packed != nil && g.Packed.weighted)
}

// ArcWeight returns the weight of the arc at Adjncy index k (1 if
// unweighted). It panics on a weighted compressed graph, where the
// aligned EWgt array does not exist — use a Cursor there.
func (g *Graph) ArcWeight(k int32) int32 {
	if g.EWgt == nil {
		if g.EdgeWeighted() {
			panic("graph: ArcWeight on a weighted compressed graph; use a Cursor")
		}
		return 1
	}
	return g.EWgt[k]
}

// TotalVertexWeight returns the sum of all vertex weights.
func (g *Graph) TotalVertexWeight() int64 {
	if g.VWgt == nil {
		return int64(g.NumVertices())
	}
	var t int64
	for _, w := range g.VWgt {
		t += int64(w)
	}
	return t
}

// validateGrain is the minimum vertices per parallel Validate chunk.
const validateGrain = 256

// Validate checks structural invariants: monotone XAdj, in-range
// neighbour ids, no self-loops, and symmetric adjacency with matching
// arc weights. The symmetry check sorts and aggregates each row, then
// binary-searches the mirror row — the same scheme the readers use —
// chunked over hostpar instead of the old O(M) directed-arc map. All
// errors are deterministic: scan errors report the first offending
// (vertex, arc) in row order, asymmetry reports the smallest (u,v).
// It is O(M log M) and intended for tests and after I/O.
func (g *Graph) Validate() error {
	n := g.NumVertices()
	if n < 0 {
		return errors.New("graph: XAdj must have length >= 1")
	}
	if g.XAdj[0] != 0 {
		return errors.New("graph: XAdj[0] must be 0")
	}
	for v := 0; v < n; v++ {
		if g.XAdj[v+1] < g.XAdj[v] {
			return fmt.Errorf("graph: XAdj not monotone at vertex %d", v)
		}
	}
	if g.Packed == nil {
		if int(g.XAdj[n]) != len(g.Adjncy) {
			return fmt.Errorf("graph: XAdj[n]=%d but len(Adjncy)=%d", g.XAdj[n], len(g.Adjncy))
		}
		if g.EWgt != nil && len(g.EWgt) != len(g.Adjncy) {
			return fmt.Errorf("graph: len(EWgt)=%d want %d", len(g.EWgt), len(g.Adjncy))
		}
	}
	if g.VWgt != nil && len(g.VWgt) != n {
		return fmt.Errorf("graph: len(VWgt)=%d want %d", len(g.VWgt), n)
	}
	// Pass 1: per-row scan errors (row order) + sorted weight-sum
	// aggregation of each row at its XAdj offset. Chunks cover
	// ascending contiguous vertex ranges, so the first non-nil chunk
	// error is the globally first scan error.
	m := int(g.XAdj[n])
	aggNbr := make([]int32, m)
	aggW := make([]int64, m)
	aggLen := make([]int32, n+1)
	nc := hostpar.NumChunks(n, validateGrain)
	scanErrs := make([]error, nc)
	hostpar.ForN(n, nc, func(c, lo, hi int) {
		cur := GetCursor(g)
		defer cur.Release()
		var scratch []int64
		for v := lo; v < hi; v++ {
			nbrs, wgts := cur.Arcs(int32(v))
			for _, nb := range nbrs {
				if nb < 0 || int(nb) >= n {
					scanErrs[c] = fmt.Errorf("graph: neighbour %d of vertex %d out of range", nb, v)
					return
				}
				if nb == int32(v) {
					scanErrs[c] = fmt.Errorf("graph: self-loop at vertex %d", v)
					return
				}
			}
			scratch = grow(scratch, len(nbrs))
			for i, nb := range nbrs {
				scratch[i] = packArc(nb, wgts[i])
			}
			row := scratch[:len(nbrs)]
			slices.Sort(row)
			base := int(g.XAdj[v])
			cnt := 0
			for i := 0; i < len(row); {
				nb := arcTarget(row[i])
				var sum int64
				for ; i < len(row) && arcTarget(row[i]) == nb; i++ {
					sum += int64(arcWeight(row[i]))
				}
				aggNbr[base+cnt] = nb
				aggW[base+cnt] = sum
				cnt++
			}
			aggLen[v] = int32(cnt)
		}
	})
	for _, err := range scanErrs {
		if err != nil {
			return err
		}
	}
	// Pass 2: every aggregated arc must find an equal-sum mirror. Rows
	// and their neighbours are scanned ascending, so the first miss in
	// a chunk is the chunk's smallest (u,v); the first chunk with a
	// miss holds the global minimum.
	type asym struct{ u, v int32 }
	misses := make([]*asym, nc)
	hostpar.ForN(n, nc, func(c, lo, hi int) {
		for u := lo; u < hi; u++ {
			base := int(g.XAdj[u])
			for i := 0; i < int(aggLen[u]); i++ {
				v := aggNbr[base+i]
				vb := int(g.XAdj[v])
				mirror := aggNbr[vb : vb+int(aggLen[v])]
				j, ok := slices.BinarySearch(mirror, int32(u))
				if !ok || aggW[vb+j] != aggW[base+i] {
					misses[c] = &asym{int32(u), v}
					return
				}
			}
		}
	})
	for _, a := range misses {
		if a != nil {
			return fmt.Errorf("graph: asymmetric edge {%d,%d}", a.u, a.v)
		}
	}
	return nil
}

// Clone returns a deep copy of g. The compressed payload, when present,
// is shared: a CGraph is immutable after Compress.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		XAdj:   append([]int32(nil), g.XAdj...),
		Packed: g.Packed,
	}
	if g.Adjncy != nil {
		c.Adjncy = append([]int32(nil), g.Adjncy...)
	}
	if g.VWgt != nil {
		c.VWgt = append([]int32(nil), g.VWgt...)
	}
	if g.EWgt != nil {
		c.EWgt = append([]int32(nil), g.EWgt...)
	}
	return c
}

// String summarises the graph for logs.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.NumVertices(), g.NumEdges())
}
