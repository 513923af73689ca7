package geopart

import (
	"slices"
	"sync"

	"repro/internal/embed"
	"repro/internal/geometry"
	"repro/internal/graph"
)

// The per-candidate kernel that candidate evaluation ran before side
// masks, kept as the differential oracle for sideMasks and addCuts: the
// per-level edge topology cache, packed per-candidate side bitsets, the
// pooled ncand×nOwn value block the fused projection kernel writes
// into, and a branchless cut count per candidate. oracleContrib is the
// evaluation loop that drove them.

// edgeCache is the per-partition edge topology cache: the view's
// slot-resolved adjacency (embed.Distributed.Adjacency, resolved where
// ownership was decided) plus the cut-kernel view built from it, so the
// per-candidate cut loop and the strip extraction are pure array
// indexing with no map lookup or binary search.
//
// Slot encoding: owned vertices occupy [0, nOwn) (their local index),
// ghosts occupy [nOwn, nOwn+nGhost) (nOwn + ghost slot), and -1 marks
// an endpoint that is neither owned nor ghost here (possible only for
// views that do not carry the full ghost ring).
type edgeCache struct {
	nOwn, nGhost int

	// Full resolved adjacency, aligned with CSR edge order: the
	// neighbours of owned vertex i are slot[start[i]:start[i+1]]. Both
	// belong to the view; the cache only reads them.
	start []int32
	slot  []int32

	// Cut-kernel view: the edges the cut loop counts (neighbour id
	// greater than the owned id, endpoint resolvable), as flat arrays.
	// cutA is the owned endpoint's slot, cutB the neighbour's, cutW the
	// arc weight. These are the cache's own, reused through the pool.
	cutA []int32
	cutB []int32
	cutW []int64
}

var edgeCachePool = sync.Pool{New: func() any { return new(edgeCache) }}

// buildEdgeCache reads the owned adjacency of d resolved against g and
// builds the cut view from it. The cache is drawn from a pool; callers
// release() it when the partition call is done.
func buildEdgeCache(g *graph.Graph, d *embed.Distributed) *edgeCache {
	ec := edgeCachePool.Get().(*edgeCache)
	ec.nOwn, ec.nGhost = len(d.OwnedIDs), len(d.GhostIDs)
	ec.start, ec.slot, _ = d.Adjacency(g)
	ec.cutA = ec.cutA[:0]
	ec.cutB = ec.cutB[:0]
	ec.cutW = ec.cutW[:0]
	cur := graph.GetCursor(g)
	defer cur.Release()
	for i, id := range d.OwnedIDs {
		nbrs, wgts := cur.Arcs(id)
		slots := ec.slot[ec.start[i]:ec.start[i+1]]
		for e, nb := range nbrs {
			if s := slots[e]; nb > id && s >= 0 {
				ec.cutA = append(ec.cutA, int32(i))
				ec.cutB = append(ec.cutB, s)
				ec.cutW = append(ec.cutW, int64(wgts[e]))
			}
		}
	}
	return ec
}

// release returns the cache to the pool, dropping its references to the
// view's adjacency. The caller must not use it afterwards.
func (ec *edgeCache) release() {
	ec.start, ec.slot = nil, nil
	edgeCachePool.Put(ec)
}

// countCut runs the branchless cut kernel for one candidate: bits is
// the packed side vector over [0, nOwn+nGhost) slots (bit s = side of
// slot s), and the return value is the summed weight of cut edges.
func (ec *edgeCache) countCut(bits []uint64) int64 {
	var cut int64
	cutA, cutB, cutW := ec.cutA, ec.cutB, ec.cutW
	for e := range cutA {
		a := bits[cutA[e]>>6] >> (uint(cutA[e]) & 63)
		b := bits[cutB[e]>>6] >> (uint(cutB[e]) & 63)
		// XOR of the two side bits, widened to an all-ones/all-zeros
		// mask: adds cutW[e] exactly when the endpoints disagree,
		// without a branch in the inner loop.
		cut += cutW[e] & -int64((a^b)&1)
	}
	return cut
}

// kernelScratch bundles the pooled buffers of one batched
// ParallelPartition call: the ncand×nOwn column-major projection block
// (vertex-major, so one vertex's candidate values are contiguous), the
// ncand packed side bitsets over owned+ghost slots, and the per-ghost
// dot row.
type kernelScratch struct {
	block    []float64 // block[v*ncand+k]: candidate k's value at owned vertex v
	bits     []uint64  // bits[k*words+w]: packed sides of candidate k
	ghostRow []float64 // one vertex's candidate values during the ghost pass
}

var kernelScratchPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// getKernelScratch returns pooled buffers sized for ncand candidates,
// nOwn owned and nGhost ghost vertices. bits comes back zeroed; block
// and ghostRow are fully overwritten by the kernel.
func getKernelScratch(ncand, nOwn, nGhost int) (*kernelScratch, int) {
	sc := kernelScratchPool.Get().(*kernelScratch)
	words := (nOwn + nGhost + 63) / 64
	sc.block = grow(sc.block, ncand*nOwn)
	sc.bits = grow(sc.bits, ncand*words)
	for i := range sc.bits {
		sc.bits[i] = 0
	}
	sc.ghostRow = grow(sc.ghostRow, ncand)
	return sc, words
}

func (sc *kernelScratch) release() { kernelScratchPool.Put(sc) }

// grow returns s resized to length n, reusing capacity when possible.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// oracleContrib is the per-candidate evaluation loop: it returns this
// rank's (cut, w0, w1) triple per candidate and the packed side bitset
// of each candidate (bits[k*words:(k+1)*words], bit s = side of slot s).
func oracleContrib(g *graph.Graph, d *embed.Distributed, cs *candSet, norm func(geometry.Vec2) geometry.Vec2) (contrib []int64, bits []uint64, words int) {
	nOwn, nGhost := len(d.OwnedIDs), len(d.GhostIDs)
	ncand := len(cs.dirs)
	ec := buildEdgeCache(g, d)
	defer ec.release()
	sc, words := getKernelScratch(ncand, nOwn, nGhost)
	defer sc.release()
	block, bits := sc.block, sc.bits

	contrib = make([]int64, 3*ncand)
	// Owned pass: lift each vertex once, evaluate every candidate while
	// the point is hot, and fold sides and weights in the same sweep.
	for v := 0; v < nOwn; v++ {
		id := d.OwnedIDs[v]
		p3 := geometry.StereoUp(norm(d.OwnedPos[v]))
		row := block[v*ncand : (v+1)*ncand]
		for m := range cs.ms {
			lo, hi := cs.mobStart[m], cs.mobStart[m+1]
			cs.ms[m].ApplyDots(p3, cs.dirs[lo:hi], row[lo:hi])
		}
		w := int64(g.VertexWeight(id))
		word := v >> 6
		bit := uint64(1) << (uint(v) & 63)
		for k := 0; k < ncand; k++ {
			if valueAbove(row[k], id, cs.tVal[k], cs.tID[k]) {
				bits[k*words+word] |= bit
				contrib[3*k+2] += w
			} else {
				contrib[3*k+1] += w
			}
		}
	}
	// Ghost pass: same fused evaluation, sides only, into the ghost
	// region of each candidate's bitset.
	row := sc.ghostRow
	for gi := 0; gi < nGhost; gi++ {
		id := d.GhostIDs[gi]
		p3 := geometry.StereoUp(norm(d.GhostPos[gi]))
		for m := range cs.ms {
			lo, hi := cs.mobStart[m], cs.mobStart[m+1]
			cs.ms[m].ApplyDots(p3, cs.dirs[lo:hi], row[lo:hi])
		}
		slot := nOwn + gi
		word := slot >> 6
		bit := uint64(1) << (uint(slot) & 63)
		for k := 0; k < ncand; k++ {
			if valueAbove(row[k], id, cs.tVal[k], cs.tID[k]) {
				bits[k*words+word] |= bit
			}
		}
	}
	for k := 0; k < ncand; k++ {
		contrib[3*k] = ec.countCut(bits[k*words : (k+1)*words])
	}
	return contrib, slices.Clone(bits), words
}
