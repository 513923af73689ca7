package embed

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/quadtree"
)

// Lattice is one level's geometric decomposition: a tensor lattice of
// quantile cuts aligned with the processor grid, so sub-domain B(i,j)
// belongs to grid processor (i,j). This generalises the paper's fixed
// uniform lattice in the same way its coarsest-level RCB mapping does:
// cuts follow the point distribution, so boxes stay load balanced.
type Lattice struct {
	Grid   mpi.Grid
	XCuts  []float64 // len Cols+1, ascending; XCuts[0]/XCuts[Cols] are bounds
	YCuts  []float64 // len Rows+1, ascending
	Bounds geometry.Rect
}

// NewLattice builds a lattice for grid from a coordinate sample: cut
// positions are sample quantiles, independently per axis.
func NewLattice(grid mpi.Grid, sample []geometry.Vec2, bounds geometry.Rect) *Lattice {
	xs := make([]float64, len(sample))
	ys := make([]float64, len(sample))
	for i, p := range sample {
		xs[i], ys[i] = p.X, p.Y
	}
	return newLatticeFromAxes(grid, xs, ys, bounds)
}

// newLatticeFromAxes builds a lattice from per-axis coordinate samples.
// The cuts depend only on each axis's sorted multiset, so callers that
// stream coordinates (rather than materialising []Vec2) feed the axes
// directly. Ownership of xs and ys transfers to the lattice; both are
// sorted in place.
func newLatticeFromAxes(grid mpi.Grid, xs, ys []float64, bounds geometry.Rect) *Lattice {
	l := &Lattice{Grid: grid, Bounds: bounds}
	sort.Float64s(xs)
	sort.Float64s(ys)
	l.XCuts = quantileCuts(xs, grid.Cols, bounds.X0, bounds.X1)
	l.YCuts = quantileCuts(ys, grid.Rows, bounds.Y0, bounds.Y1)
	return l
}

// clone returns a copy of l that shares no cut slice with it.
func (l *Lattice) clone() *Lattice {
	c := *l
	c.XCuts = slices.Clone(l.XCuts)
	c.YCuts = slices.Clone(l.YCuts)
	return &c
}

// quantileCuts returns k+1 ascending cut positions over [lo, hi] with
// interior cuts at the sorted sample's quantiles; degenerate samples
// fall back to uniform spacing.
func quantileCuts(sorted []float64, k int, lo, hi float64) []float64 {
	cuts := make([]float64, k+1)
	cuts[0], cuts[k] = lo, hi
	for j := 1; j < k; j++ {
		if len(sorted) > 0 {
			idx := j * len(sorted) / k
			if idx >= len(sorted) {
				idx = len(sorted) - 1
			}
			cuts[j] = sorted[idx]
		} else {
			cuts[j] = lo + (hi-lo)*float64(j)/float64(k)
		}
	}
	// Enforce strict monotonicity so every box has positive extent.
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	eps := 1e-9 * span
	for j := 1; j <= k; j++ {
		if cuts[j] <= cuts[j-1] {
			cuts[j] = cuts[j-1] + eps
		}
	}
	return cuts
}

// locate returns the cell of v among cuts: the last cell whose lower
// cut is ≤ v, clamped to the first and last cells. The bisection keeps
// 0 ≤ lo < hi ≤ k, so the result is a valid cell for any v (NaN lands
// in cell 0).
func locate(cuts []float64, v float64) int {
	// cuts has k+1 entries for k cells; find the cell index.
	lo, hi := 0, len(cuts)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if cuts[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// BoxOf returns the (row, col) lattice cell containing p.
func (l *Lattice) BoxOf(p geometry.Vec2) (row, col int) {
	return locate(l.YCuts, p.Y), locate(l.XCuts, p.X)
}

// RankOf returns the grid rank owning p's cell.
func (l *Lattice) RankOf(p geometry.Vec2) int {
	r, c := l.BoxOf(p)
	return l.Grid.RankAt(r, c)
}

// BoxRect returns the rectangle of cell (row, col).
func (l *Lattice) BoxRect(row, col int) geometry.Rect {
	return geometry.Rect{
		X0: l.XCuts[col], X1: l.XCuts[col+1],
		Y0: l.YCuts[row], Y1: l.YCuts[row+1],
	}
}

// ClampToNeighborhood implements the paper's ghost-coordinate rule:
// the coordinate of a ghost vertex is moved into the neighbouring box
// at shortest L1 distance from the home box (homeRow, homeCol), so
// every cross-domain edge appears to end in one of the four adjacent
// sub-domains. Coordinates already in the home box or a 4-neighbour are
// returned unchanged.
func (l *Lattice) ClampToNeighborhood(p geometry.Vec2, homeRow, homeCol int) geometry.Vec2 {
	r, c := l.BoxOf(p)
	dr, dc := r-homeRow, c-homeCol
	if abs(dr)+abs(dc) <= 1 {
		return p
	}
	// Nearest 4-neighbour box: keep the dominant offset direction,
	// capped to distance one.
	tr, tc := homeRow, homeCol
	if abs(dr) >= abs(dc) {
		tr += sign(dr)
	} else {
		tc += sign(dc)
	}
	box := l.BoxRect(tr, tc)
	q := box.Clamp(p)
	// A point clamped exactly onto a box's upper edge would classify
	// into the next box over (cuts are half-open); nudge inward.
	if q.X >= box.X1 {
		q.X = box.X1 - 1e-9*box.Width()
	}
	if q.Y >= box.Y1 {
		q.Y = box.Y1 - 1e-9*box.Height()
	}
	return q
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func sign(x int) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	}
	return 0
}

// neighborRef resolves one adjacency endpoint: a local owned index or a
// ghost slot.
type neighborRef struct {
	idx   int32
	w     float64
	ghost bool
}

// beta is one special vertex of the repulsion lattice: total mass and
// centre of mass of the vertices in one cell. The paper uses one
// special vertex per processor sub-domain; this implementation refines
// each rank's box into an s×s sub-cell grid so the global cell count
// never drops below minGlobalCells — with one cell per rank the
// approximation degenerates at small P (with P=1 all repulsion would
// act from a single centre of mass).
type beta struct {
	Phi geometry.Vec2
	Mu  float64
}

// boxSubCells is the per-rank sub-cell grid side: each box maintains
// 4×4 special vertices so that border cells can be corrected with the
// neighbouring box's near-side aggregates.
const boxSubCells = 4

// The near-cell window: a rank reads sub-cells individually only from
// its own box and the eight boxes around it, so it keeps those 3×3
// boxes' cells in one array, box (dr, dc) ∈ {-1, 0, 1}² at slot
// (dr+1)·3 + (dc+1), each box's cells row-major.
const (
	nearBoxes = 9
	ownBox    = 4
)

// cellBlock is the rank-identical cell data of one staleness block,
// derived once inside the block's gather and shared read-only by every
// rank: each rank's sub-cells, rank-major (rank r's cells, row-major
// within its box, at [r·nc, (r+1)·nc)), and each rank's special-vertex
// aggregate of them.
type cellBlock struct {
	cells []beta
	aggs  []beta
}

// aggregate returns the special vertex of one box: the mass-weighted
// centre and total mass of its cells, summed in cell order, or the zero
// beta when the total mass is not positive.
func aggregate(cells []beta) beta {
	var sum geometry.Vec2
	mu := 0.0
	for _, b := range cells {
		sum = sum.Add(b.Phi.Scale(b.Mu))
		mu += b.Mu
	}
	if mu > 0 {
		return beta{Phi: sum.Scale(1 / mu), Mu: mu}
	}
	return beta{}
}

// deriveCellBlock is the derive of the once-per-block cell gather: it
// concatenates the gathered cells and aggregates every rank's box once,
// for all ranks. A contribution that does not carry a box's cells is
// rejected, since every later read would index past it.
func deriveCellBlock(parts [][]beta) *cellBlock {
	const nc = boxSubCells * boxSubCells
	blk := &cellBlock{cells: make([]beta, 0, len(parts)*nc), aggs: make([]beta, len(parts))}
	for r, cells := range parts {
		if len(cells) != nc {
			panic(fmt.Errorf("embed: beta gather from rank %d carried %d cells, want %d (truncated payload?)", r, len(cells), nc))
		}
		blk.cells = append(blk.cells, cells...)
		blk.aggs[r] = aggregate(cells)
	}
	return blk
}

// partner is one ghost-exchange partner: the owned local indices a
// rank subscribes to (send side) or the ghost slots its pushes fill, in
// its send order (receive side).
type partner struct {
	rank int
	idxs []int32
}

// levelState is one rank's state while smoothing one level with the
// fixed lattice scheme.
type levelState struct {
	comm *mpi.Comm
	lat  *Lattice
	g    *graph.Graph

	ownedIDs []int32         // ascending
	pos      []geometry.Vec2 // aligned with ownedIDs
	mass     []float64

	ghostIDs     []int32
	ghostPos     []geometry.Vec2 // true (unclamped, possibly stale) coordinates
	ghostClamped []geometry.Vec2 // ghost coordinates clamped to the 4-neighbourhood
	ghostSlot    map[int32]int32

	adj      [][]neighborRef // per owned vertex
	boundary []int32         // owned local indices with a ghost neighbour

	// Ghost update pattern, partners in ascending rank order: sendTo
	// lists the owned local indices each partner subscribes to,
	// recvFrom the ghost slots each partner's pushes fill.
	sendTo   []partner
	recvFrom []partner

	subS    int             // sub-cells per box side
	block   *cellBlock      // this block's gathered cells and aggregates (shared)
	near    []beta          // own and surrounding boxes' cells (see nearBoxes)
	myCells []beta          // this rank's cells: near's own box
	inherit []geometry.Vec2 // per local cell: far-field force per unit mass
	ring    [][]int32       // per local cell: near indices of 3x3-adjacent cells outside this box
	moves   []geometry.Vec2 // scratch displacement buffer
	homeR   int
	homeC   int
	step    *StepController
	fp      ForceParams
	energy  float64 // local energy accumulator for the adaptive step
	aSum    float64 // local sum of attractive force magnitudes
	rSum    float64 // local sum of repulsive force magnitudes

	// Grid neighbours (N, S, W, E), and per neighbour i: its box's
	// slot in near, its subscriptions, the ghost slots it fills, and
	// its aggregate as of its latest cells.
	nbrs     []int
	nbrBox   []int
	nbrSend  [][]int32
	nbrRecv  [][]int32
	nbrAggs  []beta
	override []aggOverride // ranks whose shared aggregate inheritChunk replaces
	aggEvals int           // box aggregates this rank computed (work counter)

	// Steady-state scratch: owned by the level so the smoothing hot
	// loop never allocates after the first block.
	cellSums []geometry.Vec2        // computeCells mass-weighted sums
	nbrBufs  []*mpi.VecBuf[float64] // per-neighbour send staging
	tree     quadtree.Tree          // Barnes–Hut tree, rebuilt in place each iteration

	// Host-parallel scratch and pre-bound chunk bodies (hostpar.go).
	hp hostparScratch
}

// aggOverride marks a rank whose shared block aggregate does not apply
// in inheritChunk: this rank itself (nbr < 0, skipped) or grid
// neighbour nbr, whose cells changed within the block.
type aggOverride struct {
	rank, nbr int
}

// newLevelState wires up a rank's level: adjacency resolution, ghost
// discovery, and subscription exchange. ownedIDs must be ascending.
// ownerOf must return the owning rank of any ghost id; it is supplied
// by the level driver (directory lookup or local computation at the
// coarsest level).
func newLevelState(comm *mpi.Comm, lat *Lattice, g *graph.Graph, ownedIDs []int32, pos []geometry.Vec2, ownerOf func(ids []int32) []int, fp ForceParams) *levelState {
	s := &levelState{
		comm:      comm,
		lat:       lat,
		g:         g,
		ownedIDs:  ownedIDs,
		pos:       pos,
		fp:        fp,
		ghostSlot: make(map[int32]int32),
	}
	s.homeR = lat.Grid.RowOf(comm.Rank())
	s.homeC = lat.Grid.ColOf(comm.Rank())
	local := func(id int32) (int32, bool) {
		i, ok := slices.BinarySearch(ownedIDs, id)
		return int32(i), ok
	}
	cur := graph.GetCursor(g)
	defer cur.Release()
	s.mass = make([]float64, len(ownedIDs))
	s.adj = make([][]neighborRef, len(ownedIDs))
	nArcs := 0
	for _, id := range ownedIDs {
		nArcs += g.Degree(id)
	}
	arcs := make([]neighborRef, 0, nArcs) // backs every adj[i]
	for i, id := range ownedIDs {
		s.mass[i] = float64(g.VertexWeight(id))
		start := len(arcs)
		isBoundary := false
		nbrs, wgts := cur.Arcs(id)
		for k, nb := range nbrs {
			w := float64(wgts[k])
			if li, ok := local(nb); ok {
				arcs = append(arcs, neighborRef{idx: li, w: w})
				continue
			}
			isBoundary = true
			slot, ok := s.ghostSlot[nb]
			if !ok {
				slot = int32(len(s.ghostIDs))
				s.ghostSlot[nb] = slot
				s.ghostIDs = append(s.ghostIDs, nb)
			}
			arcs = append(arcs, neighborRef{idx: slot, w: w, ghost: true})
		}
		s.adj[i] = arcs[start:len(arcs):len(arcs)]
		if isBoundary {
			s.boundary = append(s.boundary, int32(i))
		}
	}
	s.ghostPos = make([]geometry.Vec2, len(s.ghostIDs))
	s.ghostClamped = make([]geometry.Vec2, len(s.ghostIDs))
	// Subscribe to ghost owners; the symmetric exchange also tells us
	// which of our owned vertices other ranks need.
	owners := ownerOf(s.ghostIDs)
	requests := make([][]int32, comm.Size())
	for i, o := range owners {
		if o == comm.Rank() {
			panic("embed: ghost owned by requesting rank")
		}
		requests[o] = append(requests[o], s.ghostIDs[i])
	}
	for o, ids := range requests {
		if len(ids) == 0 {
			continue
		}
		slots := make([]int32, len(ids))
		for i, id := range ids {
			slots[i] = s.ghostSlot[id]
		}
		s.recvFrom = append(s.recvFrom, partner{rank: o, idxs: slots})
	}
	got := mpi.AllToAllV(s.comm, requests, 4)
	for r, ids := range got {
		if r == comm.Rank() || len(ids) == 0 {
			continue
		}
		idxs := make([]int32, len(ids))
		for i, id := range ids {
			li, ok := local(id)
			if !ok {
				panic("embed: subscription request for vertex not owned here")
			}
			idxs[i] = li
		}
		s.sendTo = append(s.sendTo, partner{rank: r, idxs: idxs})
	}
	s.subS = boxSubCells
	nc := s.subS * s.subS
	s.near = make([]beta, nearBoxes*nc)
	s.myCells = s.near[ownBox*nc : (ownBox+1)*nc]
	s.inherit = make([]geometry.Vec2, nc)
	s.moves = make([]geometry.Vec2, len(s.pos))
	s.nbrs = lat.Grid.Neighbors(comm.Rank())
	s.cellSums = make([]geometry.Vec2, nc)
	s.nbrBufs = make([]*mpi.VecBuf[float64], 0, len(s.nbrs))
	s.override = []aggOverride{{rank: comm.Rank(), nbr: -1}}
	for i, r := range s.nbrs {
		dr, dc := lat.Grid.RowOf(r)-s.homeR, lat.Grid.ColOf(r)-s.homeC
		s.nbrBox = append(s.nbrBox, (dr+1)*3+dc+1)
		s.nbrSend = append(s.nbrSend, partnerIdxs(s.sendTo, r))
		s.nbrRecv = append(s.nbrRecv, partnerIdxs(s.recvFrom, r))
		s.override = append(s.override, aggOverride{rank: r, nbr: i})
	}
	slices.SortFunc(s.override, func(a, b aggOverride) int { return a.rank - b.rank })
	s.nbrAggs = make([]beta, len(s.nbrs))
	s.ring = make([][]int32, nc)
	rows, cols := lat.Grid.Rows*s.subS, lat.Grid.Cols*s.subS
	for cy := 0; cy < s.subS; cy++ {
		for cx := 0; cx < s.subS; cx++ {
			var out []int32
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					ly, lx := cy+dy, cx+dx
					gr, gc := s.homeR*s.subS+ly, s.homeC*s.subS+lx
					if gr < 0 || gr >= rows || gc < 0 || gc >= cols {
						continue
					}
					// Outside this box = a different rank's cell.
					br, bc := boxStep(ly, s.subS), boxStep(lx, s.subS)
					if br == 0 && bc == 0 {
						continue
					}
					box := (br+1)*3 + bc + 1
					cell := (ly-br*s.subS)*s.subS + lx - bc*s.subS
					out = append(out, int32(box*nc+cell))
				}
			}
			s.ring[cy*s.subS+cx] = out
		}
	}
	s.step = NewStepController(fp.K)
	s.initHostpar()
	return s
}

// boxStep returns the box offset (-1, 0 or 1) of a local cell
// coordinate v that may lie one cell outside the box's [0, subS).
func boxStep(v, subS int) int {
	switch {
	case v < 0:
		return -1
	case v >= subS:
		return 1
	}
	return 0
}

// partnerIdxs returns the index list of rank in ps, or nil.
func partnerIdxs(ps []partner, rank int) []int32 {
	for _, p := range ps {
		if p.rank == rank {
			return p.idxs
		}
	}
	return nil
}

// cellOf returns the local sub-cell index of a point in this rank's
// box (clamped for points that drifted outside).
func (s *levelState) cellOf(p geometry.Vec2) int {
	box := s.lat.BoxRect(s.homeR, s.homeC)
	w, h := box.Width(), box.Height()
	cx, cy := 0, 0
	if w > 0 {
		cx = int(float64(s.subS) * (p.X - box.X0) / w)
	}
	if h > 0 {
		cy = int(float64(s.subS) * (p.Y - box.Y0) / h)
	}
	if cx < 0 {
		cx = 0
	}
	if cx >= s.subS {
		cx = s.subS - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= s.subS {
		cy = s.subS - 1
	}
	return cy*s.subS + cx
}

// pushGhosts sends subscribed coordinates to every subscription
// partner: the full once-per-block refresh. Payloads travel through the
// pooled typed fast path, so the steady-state refresh allocates
// nothing: one pooled message per partner, released by the receiver.
func (s *levelState) pushGhosts() {
	for _, p := range s.sendTo {
		buf := mpi.Vec2Bufs.Get(len(p.idxs))
		s.packGhostPayload(buf.Data, p.idxs)
		mpi.SendVec(s.comm, p.rank, buf, 16)
	}
	for _, p := range s.recvFrom {
		b := mpi.RecvVec[geometry.Vec2](s.comm, p.rank)
		if len(b.Data) != len(p.idxs) {
			// A corrupted (truncated) refresh must not index out of
			// range and must not strand the pooled transport buffer.
			n := len(b.Data)
			b.Release()
			panic(fmt.Errorf("embed: ghost refresh from rank %d carried %d coordinates, want %d at comm event %d (truncated payload?)", p.rank, n, len(p.idxs), s.comm.Events()-1))
		}
		s.installGhosts(p.idxs, b.Data)
		b.Release()
	}
}

// setGhost installs one ghost coordinate: the true position plus its
// 4-neighbourhood clamp used by the attractive force.
func (s *levelState) setGhost(slot int32, p geometry.Vec2) {
	s.ghostPos[slot] = p
	s.ghostClamped[slot] = s.lat.ClampToNeighborhood(p, s.homeR, s.homeC)
}

// The per-iteration neighbour message is one flat []float64 per
// partner: the sender's subS×subS sub-cell special vertices (Phi.X,
// Phi.Y, Mu per cell) followed by the boundary coordinates the receiver
// subscribes to (X, Y each). Both sides know the layout — the cell
// count is fixed and the receiver knows its own subscription counts —
// so no framing header is needed and the modeled payload stays exactly
// 24·cells + 16·coords bytes, as with the former boxed struct message.

// exchangeNeighborhood performs the per-iteration nearest-neighbour
// exchange: sub-cell aggregates and subscribed boundary coordinates
// move to the four grid neighbours coalesced into a single pooled
// message each (the paper's nearest-neighbour traffic, one ts charge
// per partner rather than one per payload kind); everything else stays
// stale within the block.
func (s *levelState) exchangeNeighborhood() {
	s.computeCells()
	nc := len(s.myCells)
	bufs := s.nbrBufs[:0]
	for i := range s.nbrs {
		buf := mpi.Float64Bufs.Get(3*nc + 2*len(s.nbrSend[i]))
		d := buf.Data
		for j, b := range s.myCells {
			d[3*j], d[3*j+1], d[3*j+2] = b.Phi.X, b.Phi.Y, b.Mu
		}
		s.packCoordPayload(d, 3*nc, s.nbrSend[i])
		bufs = append(bufs, buf)
	}
	s.nbrBufs = bufs
	mpi.NeighborExchange(s.comm, s.nbrs, bufs, 8, func(i, r int, d []float64) {
		if want := 3*nc + 2*len(s.nbrRecv[i]); len(d) != want {
			// NeighborExchange releases the transport buffer under
			// defer, so rejecting a truncated payload here cannot leak.
			panic(fmt.Errorf("embed: neighbour payload from rank %d carried %d values, want %d at comm event %d (truncated payload?)", r, len(d), want, s.comm.Events()-1))
		}
		cells := s.near[s.nbrBox[i]*nc : (s.nbrBox[i]+1)*nc]
		for j := range cells {
			cells[j] = beta{
				Phi: geometry.Vec2{X: d[3*j], Y: d[3*j+1]},
				Mu:  d[3*j+2],
			}
		}
		s.installGhostsFlat(s.nbrRecv[i], d, 3*nc)
	})
}

// refreshBetasGlobal gathers every rank's sub-cell special vertices
// (the once-per-block collective of the paper). The gather's derive
// builds the block's shared cells and every rank's aggregate once for
// all ranks; each rank then copies only the surrounding boxes' cells
// into its near window. The contribution is myCells itself: the derive
// copies it before any rank leaves the collective.
func (s *levelState) refreshBetasGlobal() {
	s.computeCells()
	nc := len(s.myCells)
	s.block = mpi.AllGatherWith(s.comm, s.myCells, 24*nc, deriveCellBlock)
	grid := s.lat.Grid
	for dr := -1; dr <= 1; dr++ {
		for dc := -1; dc <= 1; dc++ {
			r, c := s.homeR+dr, s.homeC+dc
			if (dr == 0 && dc == 0) || r < 0 || r >= grid.Rows || c < 0 || c >= grid.Cols {
				continue
			}
			rank := grid.RankAt(r, c)
			box := (dr+1)*3 + dc + 1
			copy(s.near[box*nc:(box+1)*nc], s.block.cells[rank*nc:(rank+1)*nc])
		}
	}
}

// rescale multiplies every coordinate and the lattice geometry by f,
// moving the layout toward its force equilibrium (attraction scales as
// f², repulsion as 1/f). Every rank applies the same factor, so box
// ownership and all relative geometry are preserved.
func (s *levelState) rescale(f float64) {
	// Element-wise scale: exact for any chunking. The ghost and cut
	// loops below stay serial — they are a small constant share. The
	// cells are not scaled: rescale runs only at a block boundary, and
	// the block's gather replaces every cell a rank reads.
	s.hp.scaleF = f
	s.forChunked(len(s.pos), grainCopy, s.hp.fnScalePos)
	for i := range s.ghostPos {
		s.ghostPos[i] = s.ghostPos[i].Scale(f)
		s.ghostClamped[i] = s.ghostClamped[i].Scale(f)
	}
	for i := range s.lat.XCuts {
		s.lat.XCuts[i] *= f
	}
	for i := range s.lat.YCuts {
		s.lat.YCuts[i] *= f
	}
	s.lat.Bounds = s.lat.Bounds.Scale(f)
	s.step.Step *= f
	s.comm.Charge(float64(len(s.pos)))
}

// Smooth runs iters iterations of the fixed-lattice scheme with the
// given staleness block size: global collectives (full ghost push,
// full beta gather, and one reduction driving the adaptive step and the
// equilibrium rescaling) run once per block; within a block only
// grid-neighbour exchanges happen.
func (s *levelState) Smooth(iters, blockSize int) {
	if blockSize < 1 {
		blockSize = 1
	}
	for it := 0; it < iters; it++ {
		if it%blockSize == 0 {
			if it > 0 {
				// One reduction per block: system energy for Hu's
				// adaptive step plus the attraction/repulsion balance
				// for the global equilibrium rescaling. A fixed-size
				// array payload keeps the collective allocation-free on
				// the contributing side (same modeled bytes and the
				// same element-wise rank-order sums as the former
				// slice reduction).
				sums := mpi.AllReduce(s.comm, [3]float64{s.energy, s.aSum, s.rSum}, 24,
					func(a, b [3]float64) [3]float64 {
						return [3]float64{a[0] + b[0], a[1] + b[1], a[2] + b[2]}
					})
				s.step.Update(sums[0])
				if sums[1] > 1e-12 && sums[2] > 1e-12 {
					f := cbrt(sums[2] / sums[1])
					if f < 0.75 {
						f = 0.75
					}
					if f > 1.75 {
						f = 1.75
					}
					s.rescale(f)
				}
			}
			s.pushGhosts()
			s.refreshBetasGlobal()
		} else {
			s.exchangeNeighborhood()
		}
		s.iterate()
	}
}

// cbrt is the cube root of x for the equilibrium rescaling, or 1 for
// x ≤ 0: thirty Newton steps from 1. From the first step on, the
// iterates stay at or above the root, so where thirty steps do not
// converge (only at extreme ratios) the result lies beyond the same
// bound of the caller's [0.75, 1.75] clamp as the root does.
func cbrt(x float64) float64 {
	if x <= 0 {
		return 1
	}
	g := 1.0
	for i := 0; i < 30; i++ {
		g = (2*g + x/(g*g)) / 3
	}
	return g
}

// Distributed is the embedding handed to the parallel geometric
// partitioner: this rank's owned vertices with final coordinates, plus
// (possibly one block stale) coordinates for every ghost neighbour.
type Distributed struct {
	Lat *Lattice
	// OwnedIDs is in ascending vertex order, which LocalSlot's binary
	// search relies on: every embedding level lists its owned points by
	// id, and SplitCoords fills each rank's list in vertex order.
	OwnedIDs []int32
	OwnedPos []geometry.Vec2
	GhostIDs []int32
	GhostPos []geometry.Vec2

	// adjStart/adjSlot is the slot-resolved adjacency (see Adjacency):
	// the arcs of OwnedIDs[i] resolve to adjSlot[adjStart[i]:adjStart[i+1]].
	adjStart []int32
	adjSlot  []int32

	ghostSlot map[int32]int32
}

// finish freezes the level state into a Distributed embedding after a
// final full ghost refresh. The adjacency the level already resolved
// becomes the view's slot-resolved adjacency, so no rank re-resolves
// its arcs by vertex id.
func (s *levelState) finish() *Distributed {
	s.pushGhosts()
	nOwn := int32(len(s.ownedIDs))
	start := make([]int32, len(s.adj)+1)
	for i, refs := range s.adj {
		start[i+1] = start[i] + int32(len(refs))
	}
	slot := make([]int32, start[len(s.adj)])
	k := 0
	for _, refs := range s.adj {
		for _, ref := range refs {
			slot[k] = ref.idx
			if ref.ghost {
				slot[k] += nOwn
			}
			k++
		}
	}
	return &Distributed{
		Lat:       s.lat,
		OwnedIDs:  s.ownedIDs,
		OwnedPos:  s.pos,
		GhostIDs:  s.ghostIDs,
		GhostPos:  s.ghostPos,
		adjStart:  start,
		adjSlot:   slot,
		ghostSlot: s.ghostSlot,
	}
}

// Adjacency returns the view's slot-resolved adjacency: a CSR over
// OwnedIDs, aligned with graph.Cursor.Arcs order, whose arcs of owned
// vertex i are slot[start[i]:start[i+1]]. Slots [0, nOwn) are owned
// vertices (their OwnedIDs index), nOwn+g is ghost g, and -1 marks a
// neighbour that is neither owned nor ghosted here. ParallelEmbed and
// SplitCoords resolve it where ownership is decided; a view built by
// hand (tests, benchmarks) resolves it against g on first use through
// LocalSlot and GhostSlot. The slices are shared and read-only.
func (d *Distributed) Adjacency(g *graph.Graph) (start, slot []int32) {
	if d.adjStart == nil {
		nOwn := int32(len(d.OwnedIDs))
		d.adjStart = make([]int32, 1, len(d.OwnedIDs)+1)
		cur := graph.GetCursor(g)
		for _, id := range d.OwnedIDs {
			nbrs, _ := cur.Arcs(id)
			for _, nb := range nbrs {
				s := int32(-1)
				if li, ok := d.LocalSlot(nb); ok {
					s = li
				} else if gi, ok := d.GhostSlot(nb); ok {
					s = nOwn + gi
				}
				d.adjSlot = append(d.adjSlot, s)
			}
			d.adjStart = append(d.adjStart, int32(len(d.adjSlot)))
		}
		cur.Release()
	}
	return d.adjStart, d.adjSlot
}

// LocalSlot returns the OwnedIDs/OwnedPos index of an owned vertex, by
// binary search over the ascending OwnedIDs.
func (d *Distributed) LocalSlot(id int32) (int32, bool) {
	li, ok := slices.BinarySearch(d.OwnedIDs, id)
	return int32(li), ok
}

// GhostSlot returns the GhostIDs/GhostPos index of a ghost vertex.
// Ghosts are in first-encounter order, so the index is a map, built on
// first use unless the constructor already had it.
func (d *Distributed) GhostSlot(id int32) (int32, bool) {
	if d.ghostSlot == nil {
		d.ghostSlot = make(map[int32]int32, len(d.GhostIDs))
		for i, v := range d.GhostIDs {
			d.ghostSlot[v] = int32(i)
		}
	}
	gi, ok := d.ghostSlot[id]
	return gi, ok
}
