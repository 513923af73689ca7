package embed

import (
	"repro/internal/geometry"
	"repro/internal/hostpar"
	"repro/internal/quadtree"
)

// Host-parallel embedding kernels.
//
// The per-rank embedding loops (force accumulation, cell aggregation,
// payload packing, ghost installation) dominate the suite wall clock
// once coarsening is parallel, so they run on the shared hostpar pool
// with PR 4's bit-identity discipline: every output element is written
// by exactly one statically assigned chunk, scalar accumulations
// (energy, force-magnitude sums, virtual-clock charges) are reduced
// serially in the original index order from per-element scratch, and
// every charged cost stays the original float expression. The run's
// host width (Comm.Workers) therefore never changes a coordinate, a
// cut, or a clock — the determinism tests pin width 1 against width 8
// exactly.
//
// The hot chunk bodies are pre-bound method values stored on the level
// state, so the steady-state iteration submits pooled work without
// allocating closures (the embed alloc guards stay at PR 2 levels).

// Grain sizes: minimum iterations per chunk for each kernel, sized so
// chunk bookkeeping stays negligible against the body.
const (
	grainForce = 32   // Barnes–Hut + attraction per vertex
	grainCell  = 256  // cellOf per point
	grainCopy  = 1024 // element-wise packs, moves, scales
	grainGhost = 256  // ghost install (clamp per coordinate)
)

// chunkCap is the most chunks a per-rank kernel forks into when the
// given number of simulated ranks shares the host's workers. The ranks
// of a level already run concurrently, one goroutine each, so once they
// cover the workers a nested fork only adds dispatch; a level with fewer
// ranks than workers lends each rank the idle ones.
func chunkCap(workers, ranks int) int {
	return max(1, workers/max(1, ranks))
}

// levelChunks returns the chunk count of a per-rank kernel over n items
// with the given grain on a level of the given rank count, in a run of
// the given host width: hostpar's chunk count, capped by chunkCap.
func levelChunks(width, ranks, n, grain int) int {
	return min(hostpar.NumChunksAt(width, n, grain), chunkCap(width, ranks))
}

// forChunked runs a per-rank kernel over n items on levelChunks chunks.
func (s *levelState) forChunked(n, grain int, body func(c, lo, hi int)) {
	hostpar.ForN(n, levelChunks(s.comm.Workers(), s.comm.Size(), n, grain), body)
}

// hostparScratch is the levelState's host-parallel working set:
// per-vertex force terms for the deterministic serial reduction,
// per-point cell indices, pack/apply staging references, and the
// pre-bound chunk bodies.
type hostparScratch struct {
	eTerm, aTerm, rTerm []float64 // per-vertex f·f, |att|, |rep|
	cellIdx             []int32   // per-point sub-cell index

	scaleF    float64         // rescale factor for fnScalePos
	packIdxs  []int32         // owned indices being packed
	packVec2  []geometry.Vec2 // Vec2 payload destination
	packF64   []float64       // float64 payload destination
	packBase  int             // first float64 slot of the coord block
	applyIdxs []int32         // ghost slots being installed
	applyVec2 []geometry.Vec2 // Vec2 payload source
	applyF64  []float64       // float64 payload source
	applyBase int             // first float64 slot of the coord block

	fnInherit, fnForce, fnMove func(c, lo, hi int)
	fnCellIdx, fnScalePos      func(c, lo, hi int)
	fnPackVec2, fnPackF64      func(c, lo, hi int)
	fnApplyVec2, fnApplyF64    func(c, lo, hi int)
}

// initHostpar sizes the scratch and binds the chunk bodies once per
// level, so the smoothing loop never allocates for pool submission.
func (s *levelState) initHostpar() {
	n := len(s.pos)
	s.hp.eTerm = make([]float64, n)
	s.hp.aTerm = make([]float64, n)
	s.hp.rTerm = make([]float64, n)
	s.hp.cellIdx = make([]int32, n)
	s.hp.fnInherit = s.inheritChunk
	s.hp.fnForce = s.forceChunk
	s.hp.fnMove = s.moveChunk
	s.hp.fnCellIdx = s.cellIdxChunk
	s.hp.fnScalePos = s.scalePosChunk
	s.hp.fnPackVec2 = s.packVec2Chunk
	s.hp.fnPackF64 = s.packF64Chunk
	s.hp.fnApplyVec2 = s.applyVec2Chunk
	s.hp.fnApplyF64 = s.applyF64Chunk
}

// inheritChunk computes the inherited far-field force of local cells
// [lo, hi): every remote rank's aggregate in rank order — the block's
// shared aggregate, or for a grid neighbour the aggregate of its latest
// cells — minus the ring cells forceChunk evaluates per vertex (they
// are part of their rank's aggregate, so their lumped contribution is
// subtracted).
func (s *levelState) inheritChunk(_, lo, hi int) {
	fp := s.fp
	aggs := s.block.aggs
	for c := lo; c < hi; c++ {
		mine := s.myCells[c]
		var f geometry.Vec2
		if mine.Mu > 0 {
			from := 0
			for _, o := range s.override {
				f = repelAll(fp, mine.Phi, aggs[from:o.rank], f)
				if o.nbr >= 0 {
					if a := s.nbrAggs[o.nbr]; a.Mu != 0 {
						f = f.Add(fp.Repulsive(mine.Phi, a.Phi, a.Mu))
					}
				}
				from = o.rank + 1
			}
			f = repelAll(fp, mine.Phi, aggs[from:], f)
			for _, ni := range s.ring[c] {
				b := s.near[ni]
				if b.Mu > 0 {
					f = f.Sub(fp.Repulsive(mine.Phi, b.Phi, b.Mu))
				}
			}
		}
		s.inherit[c] = f
	}
}

// repelAll returns f plus the repulsion on a unit mass at p from each
// aggregate of nonzero mass, added in order.
func repelAll(fp ForceParams, p geometry.Vec2, aggs []beta, f geometry.Vec2) geometry.Vec2 {
	for _, a := range aggs {
		if a.Mu != 0 {
			f = f.Add(fp.Repulsive(p, a.Phi, a.Mu))
		}
	}
	return f
}

// forceChunk evaluates the full force on the owned vertices at
// positions [lo, hi) of the tree's point order, four at a time, writing
// each vertex's displacement and energy/magnitude terms at its own
// index. Within one vertex the repulsion terms are added in a fixed
// order (inherited far field, ring cells, then the Barnes–Hut clusters
// in tree order), whichever group the vertex falls in; the tree is
// read-only here.
func (s *levelState) forceChunk(_, lo, hi int) {
	fp := s.fp
	ck2 := fp.C * fp.K * fp.K
	order := s.tree.Order()
	var g quadtree.Group
	for k := lo; k < hi; k += 4 {
		lanes := order[k:min(k+4, hi)]
		g.Reset()
		for _, v := range lanes {
			p := s.pos[v]
			cell := s.cellOf(p)
			rep := s.inherit[cell].Scale(s.mass[v])
			for _, ni := range s.ring[cell] {
				b := s.near[ni]
				if b.Mu > 0 {
					rep = rep.Add(fp.Repulsive(p, b.Phi, b.Mu).Scale(s.mass[v]))
				}
			}
			g.Add(p, v, s.mass[v], rep)
		}
		s.tree.RepulsionGroup(&g, 0.9, ck2)
		for l, v := range lanes {
			s.finishForce(int(v), g.Acc(l))
		}
	}
}

// finishForce adds the attraction on owned vertex i to its repulsion rep
// and writes the vertex's displacement and energy/magnitude terms.
func (s *levelState) finishForce(i int, rep geometry.Vec2) {
	fp := s.fp
	p := s.pos[i]
	nOwn := int32(len(s.pos))
	var att geometry.Vec2
	for k := s.adjStart[i]; k < s.adjStart[i+1]; k++ {
		var q geometry.Vec2
		if sl := s.adjSlot[k]; sl < nOwn {
			q = s.pos[sl]
		} else {
			q = s.ghostClamped[sl-nOwn]
		}
		w := 1.0
		if s.adjW != nil {
			w = float64(s.adjW[k])
		}
		att = att.Add(fp.Attractive(p, q).Scale(w))
	}
	s.hp.aTerm[i] = att.Norm()
	s.hp.rTerm[i] = rep.Norm()
	f := rep.Add(att)
	s.hp.eTerm[i] = f.Dot(f)
	n := f.Norm()
	if n > 1e-12 {
		s.moves[i] = f.Scale(s.step.Step / n)
	} else {
		s.moves[i] = geometry.Vec2{}
	}
}

// moveChunk applies the displacement buffer to vertices [lo, hi).
func (s *levelState) moveChunk(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.pos[i] = s.pos[i].Add(s.moves[i])
	}
}

// cellIdxChunk classifies points [lo, hi) into sub-cells; the mass
// accumulation over the indices stays serial in point order.
func (s *levelState) cellIdxChunk(_, lo, hi int) {
	for i := lo; i < hi; i++ {
		s.hp.cellIdx[i] = int32(s.cellOf(s.pos[i]))
	}
}

// scalePosChunk rescales owned coordinates [lo, hi) by hp.scaleF.
func (s *levelState) scalePosChunk(_, lo, hi int) {
	f := s.hp.scaleF
	for i := lo; i < hi; i++ {
		s.pos[i] = s.pos[i].Scale(f)
	}
}

// packVec2Chunk gathers pos[packIdxs[k]] into packVec2 for k in
// [lo, hi): the pushGhosts payload fill.
func (s *levelState) packVec2Chunk(_, lo, hi int) {
	for k := lo; k < hi; k++ {
		s.hp.packVec2[k] = s.pos[s.hp.packIdxs[k]]
	}
}

// packF64Chunk gathers subscribed coordinates into the flat neighbour
// payload: slots packBase+2k, packBase+2k+1 for k in [lo, hi).
func (s *levelState) packF64Chunk(_, lo, hi int) {
	d, base := s.hp.packF64, s.hp.packBase
	for k := lo; k < hi; k++ {
		p := s.pos[s.hp.packIdxs[k]]
		d[base+2*k], d[base+2*k+1] = p.X, p.Y
	}
}

// applyVec2Chunk installs ghost coordinates [lo, hi) from a Vec2
// payload. Slots within one partner's message are distinct, so each
// ghost slot is written by exactly one chunk.
func (s *levelState) applyVec2Chunk(_, lo, hi int) {
	for k := lo; k < hi; k++ {
		s.setGhost(s.hp.applyIdxs[k], s.hp.applyVec2[k])
	}
}

// applyF64Chunk installs ghost coordinates [lo, hi) from the flat
// neighbour payload starting at applyBase.
func (s *levelState) applyF64Chunk(_, lo, hi int) {
	d, base := s.hp.applyF64, s.hp.applyBase
	for k := lo; k < hi; k++ {
		s.setGhost(s.hp.applyIdxs[k], geometry.Vec2{X: d[base+2*k], Y: d[base+2*k+1]})
	}
}

// iterate runs one force iteration. Repulsion has three tiers:
// within this rank's own box a Barnes–Hut quadtree over the owned
// points gives sequential-quality near-field forces (at P=1 the scheme
// therefore reduces to the sequential algorithm); remote boxes act
// through their special-vertex aggregates, inherited once per local
// sub-cell exactly as in Eq. (1)–(2) of the paper; and the sub-cells of
// neighbouring boxes that touch a border cell are evaluated per vertex
// to correct the border near field. Attraction is exact, with ghost
// positions clamped to the 4-neighbourhood per the paper. The paper's
// mass products are interpreted per unit mass so repulsion and
// attraction stay commensurate.
//
// Element-wise passes run chunked on the pool; the three scalar sums
// are reduced serially from per-vertex terms in vertex order.
func (s *levelState) iterate() {
	nc := len(s.myCells)
	// Only the grid neighbours' cells changed since the block's gather;
	// every other rank's aggregate is the block's shared one.
	for i, box := range s.nbrBox {
		s.nbrAggs[i] = aggregate(s.near[box*nc : (box+1)*nc])
	}
	s.aggEvals += len(s.nbrBox)
	s.forChunked(nc, 2, s.hp.fnInherit)
	// Own-box Barnes–Hut tree: Rebuild stays serial — one build per
	// iteration is a small share of the force pass it serves.
	s.tree.Rebuild(s.pos, s.mass)
	s.forChunked(len(s.pos), grainForce, s.hp.fnForce)
	energy, aSum, rSum := 0.0, 0.0, 0.0
	for i := range s.pos {
		aSum += s.hp.aTerm[i]
		rSum += s.hp.rTerm[i]
		energy += s.hp.eTerm[i]
	}
	s.forChunked(len(s.pos), grainCopy, s.hp.fnMove)
	s.energy = energy
	s.aSum = aSum
	s.rSum = rSum
	// Model: per owned vertex, ~theta-visit Barnes–Hut terms plus the
	// degree attractive terms; per cell, the remote-aggregate loop. A
	// charged unit is one force kernel evaluation (a handful of fused
	// floating-point operations). The charge depends on neither the host
	// worker count nor the traversal.
	ops := float64(nc * (s.lat.Grid.Size() + 8))
	for i := range s.pos {
		ops += float64(s.adjStart[i+1]-s.adjStart[i]) + 16
	}
	s.comm.Charge(ops)
}

// computeCells refreshes this rank's sub-cell aggregates (myCells, the
// own box of the near window) from the owned points. Points are
// classified in parallel; mass and centre sums accumulate serially in
// point order, so the aggregates (and everything downstream: cells,
// forces, clocks) do not depend on the worker count.
func (s *levelState) computeCells() {
	for i := range s.myCells {
		s.myCells[i] = beta{}
	}
	sums := s.cellSums
	for i := range sums {
		sums[i] = geometry.Vec2{}
	}
	s.forChunked(len(s.pos), grainCell, s.hp.fnCellIdx)
	for i := range s.pos {
		c := s.hp.cellIdx[i]
		sums[c] = sums[c].Add(s.pos[i].Scale(s.mass[i]))
		s.myCells[c].Mu += s.mass[i]
	}
	box := s.lat.BoxRect(s.homeR, s.homeC)
	for c := range s.myCells {
		if s.myCells[c].Mu > 0 {
			s.myCells[c].Phi = sums[c].Scale(1 / s.myCells[c].Mu)
		} else {
			// Empty cell: park its centre inside the box; zero mass
			// keeps it out of force sums.
			s.myCells[c].Phi = box.Center()
		}
	}
}

// packGhostPayload fills dst[k] = pos[idxs[k]].
func (s *levelState) packGhostPayload(dst []geometry.Vec2, idxs []int32) {
	s.hp.packIdxs, s.hp.packVec2 = idxs, dst
	s.forChunked(len(idxs), grainCopy, s.hp.fnPackVec2)
	s.hp.packIdxs, s.hp.packVec2 = nil, nil
}

// packCoordPayload fills d[base+2k], d[base+2k+1] = pos[idxs[k]].
func (s *levelState) packCoordPayload(d []float64, base int, idxs []int32) {
	s.hp.packIdxs, s.hp.packF64, s.hp.packBase = idxs, d, base
	s.forChunked(len(idxs), grainCopy, s.hp.fnPackF64)
	s.hp.packIdxs, s.hp.packF64 = nil, nil
}

// installGhosts sets ghost slots from a Vec2 payload (clamping each
// coordinate to the 4-neighbourhood).
func (s *levelState) installGhosts(slots []int32, payload []geometry.Vec2) {
	s.hp.applyIdxs, s.hp.applyVec2 = slots, payload
	s.forChunked(len(slots), grainGhost, s.hp.fnApplyVec2)
	s.hp.applyIdxs, s.hp.applyVec2 = nil, nil
}

// installGhostsFlat sets ghost slots from the flat neighbour payload
// starting at base.
func (s *levelState) installGhostsFlat(slots []int32, d []float64, base int) {
	s.hp.applyIdxs, s.hp.applyF64, s.hp.applyBase = slots, d, base
	s.forChunked(len(slots), grainGhost, s.hp.fnApplyF64)
	s.hp.applyIdxs, s.hp.applyF64 = nil, nil
}
