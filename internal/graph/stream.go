package graph

import (
	"fmt"

	"repro/internal/hostpar"
)

// BuildStreamed assembles a CSR graph from an edge stream without the
// Builder's per-edge staging triple. emit is invoked twice with an add
// callback and must produce the same edge sequence both times (any
// deterministic generator does): the first pass only counts directed
// arcs per vertex, the second scatters them straight into the packed
// arc buffer at its final bucket offsets. The only transient beyond
// the finished graph is that exact-size buffer — there is no append
// growth and no (u, v, w) record list, so generator peak RSS drops
// from O(edges) staging plus doubling slack to the single packed pass.
//
// Edge semantics match Builder exactly — self-loops dropped, {u,v}
// recorded once regardless of orientation, duplicate weights summed,
// EWgt materialised iff some surviving weight differs from 1 — and the
// per-vertex sort/dedup tail is the Builder's bucketTail, so the result
// is bit-identical to feeding the same stream through NewBuilder/Build
// at any worker count.
func BuildStreamed(n int, emit func(add func(u, v, w int32))) *Graph {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	start := make([]int32, n+1)
	kept := 0
	wsAny := false
	check := func(u, v int32) bool {
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, n))
		}
		return u != v
	}
	emit(func(u, v, w int32) {
		if !check(u, v) {
			return
		}
		start[u+1]++
		start[v+1]++
		kept++
		if w != 1 {
			wsAny = true
		}
	})
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	arcs := make([]int64, 2*kept)
	cursor := append([]int32(nil), start[:n]...)
	replayed := 0
	emit(func(u, v, w int32) {
		if !check(u, v) {
			return
		}
		replayed++
		arcs[cursor[u]] = packArc(v, w)
		cursor[u]++
		arcs[cursor[v]] = packArc(u, w)
		cursor[v]++
	})
	if replayed != kept {
		panic(fmt.Sprintf("graph: BuildStreamed emit not deterministic: %d edges then %d", kept, replayed))
	}
	nc := hostpar.NumChunks(n, builderGrain)
	return bucketTail(n, nc, arcs, start, cursor, make([]bool, nc), wsAny)
}
