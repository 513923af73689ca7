package embed

import (
	"repro/internal/geometry"
	"repro/internal/hostpar"
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
// every charged cost stays the original float expression. Worker count
// therefore never changes a coordinate, a cut, or a clock — the
// determinism tests pin worker=1 against worker=8 exactly.
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

	fnAggs, fnInherit, fnForce, fnMove func(c, lo, hi int)
	fnCellIdx, fnScalePos              func(c, lo, hi int)
	fnPackVec2, fnPackF64              func(c, lo, hi int)
	fnApplyVec2, fnApplyF64            func(c, lo, hi int)
}

// initHostpar sizes the scratch and binds the chunk bodies once per
// level, so the smoothing loop never allocates for pool submission.
func (s *levelState) initHostpar() {
	n := len(s.pos)
	s.hp.eTerm = make([]float64, n)
	s.hp.aTerm = make([]float64, n)
	s.hp.rTerm = make([]float64, n)
	s.hp.cellIdx = make([]int32, n)
	s.hp.fnAggs = s.aggsChunk
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

// aggsChunk computes the per-remote-rank special-vertex aggregates for
// ranks [lo, hi): each aggregate reads only the (frozen) cell array and
// writes only its own slot.
func (s *levelState) aggsChunk(_, lo, hi int) {
	me := s.comm.Rank()
	for r := lo; r < hi; r++ {
		s.rankAggs[r] = beta{}
		if r == me {
			continue
		}
		br, bc := s.lat.Grid.RowOf(r), s.lat.Grid.ColOf(r)
		var sum geometry.Vec2
		mu := 0.0
		for cy := 0; cy < s.subS; cy++ {
			gr := br*s.subS + cy
			base := gr*s.cellCols() + bc*s.subS
			for cx := 0; cx < s.subS; cx++ {
				b := s.betas[base+cx]
				sum = sum.Add(b.Phi.Scale(b.Mu))
				mu += b.Mu
			}
		}
		if mu > 0 {
			s.rankAggs[r] = beta{Phi: sum.Scale(1 / mu), Mu: mu}
		}
	}
}

// inheritChunk computes the inherited far-field force of local cells
// [lo, hi) from the finished rank aggregates: all remote rank
// aggregates, minus the ring cells forceChunk evaluates per vertex
// (they are part of their rank's aggregate, so their lumped
// contribution is subtracted).
func (s *levelState) inheritChunk(_, lo, hi int) {
	me := s.comm.Rank()
	fp := s.fp
	for c := lo; c < hi; c++ {
		mine := s.betas[s.globalCell(c/s.subS, c%s.subS)]
		var f geometry.Vec2
		if mine.Mu > 0 {
			for r, a := range s.rankAggs {
				if r == me || a.Mu == 0 {
					continue
				}
				f = f.Add(fp.Repulsive(mine.Phi, a.Phi, a.Mu))
			}
			for _, gi := range s.ring[c] {
				b := s.betas[gi]
				if b.Mu > 0 {
					f = f.Sub(fp.Repulsive(mine.Phi, b.Phi, b.Mu))
				}
			}
		}
		s.inherit[c] = f
	}
}

// forceChunk evaluates the full force on owned vertices [lo, hi),
// writing the displacement and the per-vertex energy/magnitude terms.
// Within one vertex the repulsion terms are added in a fixed order
// (inherited far field, ring cells, then the Barnes–Hut clusters in
// tree order); the tree is read-only here.
func (s *levelState) forceChunk(_, lo, hi int) {
	fp := s.fp
	ck2 := fp.C * fp.K * fp.K
	tree := &s.tree
	step := s.step.Step
	for i := lo; i < hi; i++ {
		p := s.pos[i]
		cell := s.cellOf(p)
		rep := s.inherit[cell].Scale(s.mass[i])
		for _, gi := range s.ring[cell] {
			b := s.betas[gi]
			if b.Mu > 0 {
				rep = rep.Add(fp.Repulsive(p, b.Phi, b.Mu).Scale(s.mass[i]))
			}
		}
		rep = tree.Repulsion(p, int32(i), 0.9, ck2, s.mass[i], rep)
		var att geometry.Vec2
		for _, ref := range s.adj[i] {
			var q geometry.Vec2
			if ref.ghost {
				q = s.ghostClamped[ref.idx]
			} else {
				q = s.pos[ref.idx]
			}
			att = att.Add(fp.Attractive(p, q).Scale(ref.w))
		}
		s.hp.aTerm[i] = att.Norm()
		s.hp.rTerm[i] = rep.Norm()
		f := rep.Add(att)
		s.hp.eTerm[i] = f.Dot(f)
		n := f.Norm()
		if n > 1e-12 {
			s.moves[i] = f.Scale(step / n)
		} else {
			s.moves[i] = geometry.Vec2{}
		}
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
	hostpar.ForChunked(len(s.rankAggs), 1, s.hp.fnAggs)
	hostpar.ForChunked(nc, 2, s.hp.fnInherit)
	// Own-box Barnes–Hut tree: Rebuild stays serial — its node layout
	// depends on insertion order, and one in-order build keeps the
	// traversal (and therefore every force sum) worker-independent.
	s.tree.Rebuild(s.pos, s.mass)
	hostpar.ForChunked(len(s.pos), grainForce, s.hp.fnForce)
	energy, aSum, rSum := 0.0, 0.0, 0.0
	for i := range s.pos {
		aSum += s.hp.aTerm[i]
		rSum += s.hp.rTerm[i]
		energy += s.hp.eTerm[i]
	}
	hostpar.ForChunked(len(s.pos), grainCopy, s.hp.fnMove)
	s.energy = energy
	s.aSum = aSum
	s.rSum = rSum
	// Model: per owned vertex, ~theta-visit Barnes–Hut terms plus the
	// degree attractive terms; per cell, the remote-aggregate loop. A
	// charged unit is one force kernel evaluation (a handful of fused
	// floating-point operations). The charge depends on neither the host
	// worker count nor the traversal.
	ops := float64(nc * (s.lat.Grid.Size() + 8))
	for i := range s.adj {
		ops += float64(len(s.adj[i])) + 16
	}
	s.comm.Charge(ops)
}

// computeCells refreshes this rank's sub-cell aggregates from the owned
// points and installs them in the global cell array. Points are
// classified in parallel; mass and centre sums accumulate serially in
// point order, so the aggregates (and everything downstream: betas,
// forces, clocks) do not depend on the worker count.
func (s *levelState) computeCells() {
	for i := range s.myCells {
		s.myCells[i] = beta{}
	}
	sums := s.cellSums
	for i := range sums {
		sums[i] = geometry.Vec2{}
	}
	hostpar.ForChunked(len(s.pos), grainCell, s.hp.fnCellIdx)
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
	s.placeCells(s.comm.Rank(), s.myCells)
}

// packGhostPayload fills dst[k] = pos[idxs[k]].
func (s *levelState) packGhostPayload(dst []geometry.Vec2, idxs []int32) {
	s.hp.packIdxs, s.hp.packVec2 = idxs, dst
	hostpar.ForChunked(len(idxs), grainCopy, s.hp.fnPackVec2)
	s.hp.packIdxs, s.hp.packVec2 = nil, nil
}

// packCoordPayload fills d[base+2k], d[base+2k+1] = pos[idxs[k]].
func (s *levelState) packCoordPayload(d []float64, base int, idxs []int32) {
	s.hp.packIdxs, s.hp.packF64, s.hp.packBase = idxs, d, base
	hostpar.ForChunked(len(idxs), grainCopy, s.hp.fnPackF64)
	s.hp.packIdxs, s.hp.packF64 = nil, nil
}

// installGhosts sets ghost slots from a Vec2 payload (clamping each
// coordinate to the 4-neighbourhood).
func (s *levelState) installGhosts(slots []int32, payload []geometry.Vec2) {
	s.hp.applyIdxs, s.hp.applyVec2 = slots, payload
	hostpar.ForChunked(len(slots), grainGhost, s.hp.fnApplyVec2)
	s.hp.applyIdxs, s.hp.applyVec2 = nil, nil
}

// installGhostsFlat sets ghost slots from the flat neighbour payload
// starting at base.
func (s *levelState) installGhostsFlat(slots []int32, d []float64, base int) {
	s.hp.applyIdxs, s.hp.applyF64, s.hp.applyBase = slots, d, base
	hostpar.ForChunked(len(slots), grainGhost, s.hp.fnApplyF64)
	s.hp.applyIdxs, s.hp.applyF64 = nil, nil
}
