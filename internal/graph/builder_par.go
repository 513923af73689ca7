package graph

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/hostpar"
)

// Parallel CSR assembly: instead of one global O(E log E) sort.Slice
// over every edge record, edges are bucketed per endpoint (two directed
// arcs per undirected record), each vertex's bucket is sorted and
// duplicate-merged independently — embarrassingly parallel over
// vertices — and rows are written straight into their final offsets.
//
// The output is provably bit-identical to the legacy path: the legacy
// sort-and-merge emits, for every vertex, its unique neighbours in
// ascending order with duplicate weights summed (int32 addition is
// order-insensitive), which is exactly what the per-bucket sort
// produces. The determinism tests flip SetParallelBuild to prove it.

// parallelBuild gates the parallel path; disabled, Build runs the
// original global sort-and-merge.
var parallelBuild atomic.Bool

func init() { parallelBuild.Store(true) }

// SetParallelBuild enables or disables the parallel Build path and
// returns the previous setting. Test hook: the parallel path must never
// change results, and the determinism tests prove it by flipping this
// switch.
func SetParallelBuild(on bool) bool {
	prev := parallelBuild.Load()
	parallelBuild.Store(on)
	return prev
}

// ParallelBuild reports whether the parallel Build path is enabled.
// Cache keys that fingerprint process-global knobs read it.
func ParallelBuild() bool { return parallelBuild.Load() }

// parallelBuildMinEdges is the record count below which the serial path
// is cheaper than forking. A var so package tests can force tiny builds
// through the parallel path.
var parallelBuildMinEdges = 4096

// SetParallelBuildMinEdges adjusts the size gate below which Build stays
// serial and returns the previous value. Test hook: lets determinism
// tests in other packages force tiny builds through the parallel path.
func SetParallelBuildMinEdges(n int) int {
	prev := parallelBuildMinEdges
	parallelBuildMinEdges = n
	return prev
}

// builderGrain is the minimum vertices per parallel chunk.
const builderGrain = 512

// packArc packs a directed arc's target and weight into one sortable
// word: target in the high 32 bits (ids are non-negative, so int64
// ordering equals target ordering), raw weight bits in the low 32.
func packArc(v, w int32) int64 { return int64(v)<<32 | int64(uint32(w)) }

func arcTarget(a int64) int32 { return int32(a >> 32) }
func arcWeight(a int64) int32 { return int32(uint32(a)) }

// dedupArcs merges adjacent same-target entries of a sorted packed-arc
// slice in place, summing weights with int32 wraparound (matching the
// legacy merge), and reports the unique count and whether any merged
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

// buildScratch is the pooled working set of one parallel build.
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

// buildParallel assembles the CSR graph with per-vertex bucket sorts.
func (b *Builder) buildParallel() *Graph {
	n := b.n
	nArcs := 2 * len(b.us)
	sc := buildScratchPool.Get().(*buildScratch)
	sc.start = grow(sc.start, n+1)
	sc.cursor = grow(sc.cursor, n)
	sc.arcs = grow(sc.arcs, nArcs)
	start, cursor, arcs := sc.start, sc.cursor, sc.arcs
	clear(start)
	// Count directed arcs per source and scatter into buckets. Both
	// passes are cheap linear scans; the O(E log E) work below is the
	// parallel part.
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
	// Sort and merge every vertex's bucket independently; cursor[u]
	// becomes the unique-neighbour count of u.
	nc := hostpar.NumChunks(n, builderGrain)
	sc.flags = grow(sc.flags, nc)
	flags := sc.flags
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
	weighted := b.wsAny
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
	buildScratchPool.Put(sc)
	g := &Graph{XAdj: xadj, Adjncy: adj, EWgt: ewgt}
	if b.vwgt != nil {
		g.VWgt = append([]int32(nil), b.vwgt...)
	}
	return g
}
