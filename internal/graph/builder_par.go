package graph

import (
	"slices"
	"sync"

	"repro/internal/hostpar"
)

// Parallel CSR assembly: instead of one global O(E log E) sort over
// every edge record, edges are bucketed per endpoint (two directed arcs
// per undirected record), each vertex's bucket is sorted and
// duplicate-merged independently — embarrassingly parallel over
// vertices — and rows are written straight into their final offsets.
//
// A global sort-and-merge emits, for every vertex, its unique
// neighbours in ascending order with duplicate weights summed (int32
// addition is order-insensitive), which is exactly what the per-bucket
// sort produces; builder_par_test.go keeps that sort-and-merge as the
// oracle.

// forkMinEdges is the record count below which a build runs in one
// chunk: forking costs more than it saves on small graphs.
const forkMinEdges = 4096

// builderGrain is the minimum vertices per parallel chunk.
const builderGrain = 512

// packArc packs a directed arc's target and weight into one sortable
// word: target in the high 32 bits (ids are non-negative, so int64
// ordering equals target ordering), raw weight bits in the low 32.
func packArc(v, w int32) int64 { return int64(v)<<32 | int64(uint32(w)) }

func arcTarget(a int64) int32 { return int32(a >> 32) }
func arcWeight(a int64) int32 { return int32(uint32(a)) }

// dedupArcs merges adjacent same-target entries of a sorted packed-arc
// slice in place, summing weights with int32 wraparound, and reports the unique count and whether any merged
// weight differs from 1.
func dedupArcs(seg []int64) (uniq int, anyNot1 bool) {
	if len(seg) == 0 {
		return 0, false
	}
	k := 0
	for i := 1; i < len(seg); i++ {
		if arcTarget(seg[i]) == arcTarget(seg[k]) {
			seg[k] = packArc(arcTarget(seg[k]), arcWeight(seg[k])+arcWeight(seg[i]))
		} else {
			k++
			seg[k] = seg[i]
		}
	}
	uniq = k + 1
	for _, a := range seg[:uniq] {
		if arcWeight(a) != 1 {
			anyNot1 = true
			break
		}
	}
	return uniq, anyNot1
}

// buildScratch is the pooled working set of one build.
type buildScratch struct {
	arcs   []int64 // packed directed arcs, bucketed by source
	start  []int32 // bucket offsets, len n+1
	cursor []int32 // scatter cursors / per-vertex unique counts, len n
	flags  []bool  // per-chunk non-unit-weight flags
}

var buildScratchPool = sync.Pool{New: func() any { return new(buildScratch) }}

func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// bucketTail finishes a bucketed build, shared by Build and
// BuildStreamed: arcs[start[u]:start[u+1]] holds vertex u's packed
// arcs. Every bucket is sorted and merged independently over nc
// chunks, cursor[u] becomes u's unique-neighbour count (flags[c] chunk
// c's non-unit-weight flag), and the rows are written at their final
// offsets. EWgt is materialised iff wsAny or some merged weight
// differs from 1.
func bucketTail(n, nc int, arcs []int64, start, cursor []int32, flags []bool, wsAny bool) *Graph {
	hostpar.ForN(n, nc, func(c, lo, hi int) {
		any := false
		for u := lo; u < hi; u++ {
			seg := arcs[start[u]:start[u+1]]
			slices.Sort(seg)
			uniq, not1 := dedupArcs(seg)
			cursor[u] = int32(uniq)
			any = any || not1
		}
		flags[c] = any
	})
	weighted := wsAny
	for _, f := range flags[:nc] {
		weighted = weighted || f
	}
	xadj := make([]int32, n+1)
	for u := 0; u < n; u++ {
		xadj[u+1] = xadj[u] + cursor[u]
	}
	adj := make([]int32, xadj[n])
	var ewgt []int32
	if weighted {
		ewgt = make([]int32, len(adj))
	}
	hostpar.ForN(n, nc, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			seg := arcs[start[u] : start[u]+cursor[u]]
			out := int(xadj[u])
			for i, a := range seg {
				adj[out+i] = arcTarget(a)
			}
			if weighted {
				for i, a := range seg {
					ewgt[out+i] = arcWeight(a)
				}
			}
		}
	})
	return &Graph{XAdj: xadj, Adjncy: adj, EWgt: ewgt}
}

// Build produces the CSR graph with per-vertex bucket sorts. The
// builder remains usable (more edges may be added and Build called
// again).
func (b *Builder) Build() *Graph {
	n := b.n
	nArcs := 2 * len(b.us)
	sc := buildScratchPool.Get().(*buildScratch)
	sc.start = grow(sc.start, n+1)
	sc.cursor = grow(sc.cursor, n)
	sc.arcs = grow(sc.arcs, nArcs)
	start, cursor, arcs := sc.start, sc.cursor, sc.arcs
	clear(start)
	// Count directed arcs per source and scatter into buckets. Both
	// passes are cheap linear scans; the O(E log E) work in bucketTail
	// is the parallel part.
	for i := range b.us {
		start[b.us[i]+1]++
		start[b.vs[i]+1]++
	}
	for u := 0; u < n; u++ {
		start[u+1] += start[u]
	}
	copy(cursor, start[:n])
	for i := range b.us {
		u, v, w := b.us[i], b.vs[i], b.ws[i]
		arcs[cursor[u]] = packArc(v, w)
		cursor[u]++
		arcs[cursor[v]] = packArc(u, w)
		cursor[v]++
	}
	nc := hostpar.NumChunks(n, builderGrain)
	if len(b.us) < forkMinEdges {
		nc = min(nc, 1)
	}
	sc.flags = grow(sc.flags, nc)
	g := bucketTail(n, nc, arcs, start, cursor, sc.flags, b.wsAny)
	buildScratchPool.Put(sc)
	if b.vwgt != nil {
		g.VWgt = append([]int32(nil), b.vwgt...)
	}
	return g
}
