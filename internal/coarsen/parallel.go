package coarsen

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/hostpar"
)

// Fork-join contraction kernels. The serial contraction assigns coarse
// ids by scanning vertices in block order (= ascending id, blocks being
// contiguous), accumulates coarse weights, funnels every cross-group
// arc through graph.Builder, and pays an O(m log m) sort per step.
// The parallel path reproduces the exact same arrays from three
// observations:
//
//   - Vertex v receives a fresh coarse id in the serial scan iff
//     match[v] >= v (otherwise its partner was visited first), and that
//     id equals the number of such "assigners" before v — a prefix sum
//     over static chunks.
//   - The coarse graph the builder emits is, per coarse vertex, its
//     unique neighbours in ascending order with parallel-edge weights
//     summed (int32, order-insensitive). Aggregating each coarse row
//     independently — children in ascending fine order, per-row sort
//     and merge — yields the identical CSR without any global sort.
//   - Coarse weightedness (EWgt nil-ness) depends only on "some
//     cross-group arc or merged edge has weight != 1", an OR over rows.
//
// Every output element is written by exactly one statically assigned
// chunk, so results are bit-identical for every worker count;
// TestHierarchyBitIdentical pins this against the serial path.

// parallelOn gates the fork-join kernels; disabled, coarsening runs the
// original serial code.
var parallelOn atomic.Bool

func init() { parallelOn.Store(true) }

// SetParallel enables or disables the fork-join coarsening kernels and
// returns the previous setting. Test hook: host parallelism must never
// change results, and the determinism tests prove it by flipping this
// switch.
func SetParallel(on bool) bool {
	prev := parallelOn.Load()
	parallelOn.Store(on)
	return prev
}

// Size gates below which the serial paths win; vars so package tests
// can force tiny graphs through the parallel kernels.
var (
	contractParMinVerts = 2048
	invertParMinVerts   = 4096
)

const (
	contractGrain = 1024 // fine vertices per chunk in id assignment
	rowGrain      = 512  // coarse vertices per chunk in row aggregation
	composeGrain  = 4096 // map entries per chunk in composition/inversion
)

func packArc(v, w int32) int64 { return int64(v)<<32 | int64(uint32(w)) }
func arcTarget(a int64) int32  { return int32(a >> 32) }
func arcWeight(a int64) int32  { return int32(uint32(a)) }

// contractScratch pools the per-chunk working buffers of the row
// aggregation: a sort scratch and an output row buffer per chunk.
type contractScratch struct {
	row []int64
	out []int64
}

var contractScratchPool = sync.Pool{New: func() any { return new(contractScratch) }}

// contractBlockedParallel is contractBlockedSerial rebuilt on hostpar;
// outputs are bit-identical.
func contractBlockedParallel(g *graph.Graph, match []int32, offsets []int32) (*graph.Graph, []int32, []int32) {
	n := g.NumVertices()
	blocks := len(offsets) - 1
	fineToCoarse := make([]int32, n)

	// Coarse id assignment: count assigners per chunk, prefix, then
	// write ids. Assigner v also labels its partner match[v] (>= v) and
	// records itself as the coarse vertex's first child; every slot is
	// written by exactly one chunk.
	nc := hostpar.NumChunks(n, contractGrain)
	cnt := make([]int32, nc+1)
	hostpar.ForN(n, nc, func(c, lo, hi int) {
		k := int32(0)
		for v := lo; v < hi; v++ {
			if int(match[v]) >= v {
				k++
			}
		}
		cnt[c+1] = k
	})
	for c := 0; c < nc; c++ {
		cnt[c+1] += cnt[c]
	}
	nCoarse := cnt[nc]
	toFine := make([]int32, nCoarse)
	hostpar.ForN(n, nc, func(c, lo, hi int) {
		id := cnt[c]
		for v := lo; v < hi; v++ {
			u := match[v]
			if int(u) >= v {
				fineToCoarse[v] = id
				fineToCoarse[u] = id
				toFine[id] = int32(v)
				id++
			}
		}
	})

	// Per-block coarse counts (the serial scan's perBlock), one block
	// per task.
	perBlock := make([]int32, blocks)
	hostpar.For(blocks, 1, func(blk int) {
		k := int32(0)
		for v := offsets[blk]; v < offsets[blk+1]; v++ {
			if match[v] >= v {
				k++
			}
		}
		perBlock[blk] = k
	})

	// Coarse vertex weights: each coarse vertex sums its (at most two)
	// children, matching the serial += order (int32, order-insensitive).
	cw := make([]int32, nCoarse)
	hostpar.For(int(nCoarse), composeGrain, func(cvi int) {
		v := toFine[cvi]
		w := g.VertexWeight(v)
		if u := match[v]; u != v {
			w += g.VertexWeight(u)
		}
		cw[cvi] = w
	})

	// Row aggregation: per coarse vertex, walk its children in ascending
	// fine order, map each arc endpoint through fineToCoarse, drop
	// intra-group arcs, sort and merge. Rows land in per-chunk buffers
	// that concatenate (chunks are ascending coarse ranges) into the
	// final CSR after a prefix sum over row lengths.
	ncr := hostpar.NumChunks(int(nCoarse), rowGrain)
	rowLen := make([]int32, nCoarse)
	outs := make([][]int64, ncr)
	scratches := make([]*contractScratch, ncr)
	flags := make([]bool, ncr)
	hostpar.ForN(int(nCoarse), ncr, func(c, lo, hi int) {
		sc := contractScratchPool.Get().(*contractScratch)
		cur := graph.GetCursor(g)
		defer cur.Release()
		row := sc.row[:0]
		out := sc.out[:0]
		anyNot1 := false
		for cv := lo; cv < hi; cv++ {
			row = row[:0]
			v := toFine[cv]
			u := match[v]
			for f := v; ; f = u {
				nbrs, wgts := cur.Arcs(f)
				for k, nb := range nbrs {
					cnb := fineToCoarse[nb]
					if cnb == int32(cv) {
						continue
					}
					w := wgts[k]
					if w != 1 {
						anyNot1 = true
					}
					row = append(row, packArc(cnb, w))
				}
				if f == u || u == v {
					break
				}
			}
			slices.Sort(row)
			uniq, not1 := dedupArcs(row)
			anyNot1 = anyNot1 || not1
			rowLen[cv] = int32(uniq)
			out = append(out, row[:uniq]...)
		}
		sc.row = row
		sc.out = out
		outs[c] = out
		scratches[c] = sc
		flags[c] = anyNot1
	})
	weighted := false
	for _, f := range flags {
		weighted = weighted || f
	}

	xadj := make([]int32, nCoarse+1)
	for cv := int32(0); cv < nCoarse; cv++ {
		xadj[cv+1] = xadj[cv] + rowLen[cv]
	}
	adj := make([]int32, xadj[nCoarse])
	var ewgt []int32
	if weighted {
		ewgt = make([]int32, len(adj))
	}
	hostpar.For(ncr, 1, func(c int) {
		lo, _ := hostpar.ChunkBounds(int(nCoarse), ncr, c)
		pos := int(xadj[lo])
		for _, a := range outs[c] {
			adj[pos] = arcTarget(a)
			if weighted {
				ewgt[pos] = arcWeight(a)
			}
			pos++
		}
	})
	for _, sc := range scratches {
		contractScratchPool.Put(sc)
	}

	cg := &graph.Graph{XAdj: xadj, Adjncy: adj, EWgt: ewgt, VWgt: cw}
	return cg, fineToCoarse, perBlock
}

// dedupArcs merges adjacent same-target entries of a sorted packed-arc
// slice in place, summing weights with int32 wraparound (matching
// graph.Builder's merge), and reports the unique count and whether any
// merged weight differs from 1.
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

// invertMapParallel is invertMapSerial as a chunked stable counting
// sort: per-chunk histograms over the coarse range, a column-wise
// conversion to starting cursors, and a scatter pass — children of each
// coarse vertex appear in ascending fine order exactly as the serial
// cursor scan emits them.
func invertMapParallel(toCoarse []int32, nCoarse int) (offsets, children []int32) {
	n := len(toCoarse)
	nc := hostpar.NumChunks(n, composeGrain)
	if nc == 1 {
		return invertMapSerial(toCoarse, nCoarse)
	}
	counts := make([]int32, nc*nCoarse)
	hostpar.ForN(n, nc, func(c, lo, hi int) {
		row := counts[c*nCoarse : (c+1)*nCoarse]
		for _, cv := range toCoarse[lo:hi] {
			row[cv]++
		}
	})
	offsets = make([]int32, nCoarse+1)
	for cv := 0; cv < nCoarse; cv++ {
		s := int32(0)
		for c := 0; c < nc; c++ {
			s += counts[c*nCoarse+cv]
		}
		offsets[cv+1] = s
	}
	for cv := 0; cv < nCoarse; cv++ {
		offsets[cv+1] += offsets[cv]
	}
	// Convert per-chunk counts to starting cursors, column by column.
	hostpar.For(nCoarse, composeGrain, func(cv int) {
		run := offsets[cv]
		for c := 0; c < nc; c++ {
			t := counts[c*nCoarse+cv]
			counts[c*nCoarse+cv] = run
			run += t
		}
	})
	children = make([]int32, n)
	hostpar.ForN(n, nc, func(c, lo, hi int) {
		row := counts[c*nCoarse : (c+1)*nCoarse]
		for v := lo; v < hi; v++ {
			cv := toCoarse[v]
			children[row[cv]] = int32(v)
			row[cv]++
		}
	})
	return offsets, children
}
