package embed

import (
	"fmt"
	"sort"

	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/hostpar"
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
	return NewLatticeFromAxes(grid, xs, ys, bounds)
}

// NewLatticeFromAxes builds a lattice from per-axis coordinate samples.
// The cuts depend only on each axis's sorted multiset, so callers that
// stream coordinates (rather than materialising []Vec2) feed the axes
// directly. Ownership of xs and ys transfers to the lattice; both are
// sorted in place.
func NewLatticeFromAxes(grid mpi.Grid, xs, ys []float64, bounds geometry.Rect) *Lattice {
	l := &Lattice{Grid: grid, Bounds: bounds}
	sort.Float64s(xs)
	sort.Float64s(ys)
	l.XCuts = quantileCuts(xs, grid.Cols, bounds.X0, bounds.X1)
	l.YCuts = quantileCuts(ys, grid.Rows, bounds.Y0, bounds.Y1)
	return l
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

// colOf locates x among the X cuts (clamped to valid columns).
func locate(cuts []float64, v float64) int {
	// cuts has k+1 entries for k cells; find the cell index.
	k := len(cuts) - 1
	lo, hi := 0, k
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if cuts[mid] <= v {
			lo = mid
		} else {
			hi = mid
		}
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= k {
		lo = k - 1
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

// levelState is one rank's state while smoothing one level with the
// fixed lattice scheme.
type levelState struct {
	comm *mpi.Comm
	lat  *Lattice
	g    *graph.Graph

	ownedIDs []int32
	pos      []geometry.Vec2 // aligned with ownedIDs
	mass     []float64

	ghostIDs     []int32
	ghostPos     []geometry.Vec2 // true (unclamped, possibly stale) coordinates
	ghostClamped []geometry.Vec2 // ghost coordinates clamped to the 4-neighbourhood
	ghostSlot    map[int32]int32

	adj      [][]neighborRef // per owned vertex
	boundary []int32         // owned local indices with a ghost neighbour

	// Ghost update pattern: sendTo[r] lists owned local indices whose
	// coordinates rank r subscribes to; recvFrom[r] lists ghost slots
	// filled by rank r's pushes, in r's send order.
	sendTo   map[int][]int32
	recvFrom map[int][]int32

	subS    int             // sub-cells per box side
	betas   []beta          // all global cells, cell-grid row-major
	myCells []beta          // scratch for this rank's cells (row-major within box)
	inherit []geometry.Vec2 // per local cell: far-field force per unit mass
	ring    [][]int         // per local cell: 3x3-adjacent global cells outside this box
	moves   []geometry.Vec2 // scratch displacement buffer
	homeR   int
	homeC   int
	step    *StepController
	fp      ForceParams
	energy  float64 // local energy accumulator for the adaptive step
	aSum    float64 // local sum of attractive force magnitudes
	rSum    float64 // local sum of repulsive force magnitudes

	// Steady-state scratch: owned by the level so the smoothing hot
	// loop never allocates after the first block.
	nbrs       []int                  // cached grid 4-neighbourhood
	cellSums   []geometry.Vec2        // computeCells mass-weighted sums
	rankAggs   []beta                 // iterate per-remote-rank aggregates
	recvCells  []beta                 // decoded neighbour sub-cells
	nbrBufs    []*mpi.VecBuf[float64] // per-neighbour send staging
	gatherBuf  [2][]beta              // double-buffered AllGather contribution
	gatherFlip int
	tree       quadtree.Tree // Barnes–Hut tree, rebuilt in place each iteration

	// Host-parallel scratch and pre-bound chunk bodies (hostpar.go).
	hp hostparScratch
}

// newLevelState wires up a rank's level: adjacency resolution, ghost
// discovery, and subscription exchange. ownerOf must return the owning
// rank of any ghost id; it is supplied by the level driver (directory
// lookup or local computation at the coarsest level).
func newLevelState(comm *mpi.Comm, lat *Lattice, g *graph.Graph, ownedIDs []int32, pos []geometry.Vec2, ownerOf func(ids []int32) []int, fp ForceParams) *levelState {
	s := &levelState{
		comm:      comm,
		lat:       lat,
		g:         g,
		ownedIDs:  ownedIDs,
		pos:       pos,
		fp:        fp,
		ghostSlot: make(map[int32]int32),
		sendTo:    make(map[int][]int32),
		recvFrom:  make(map[int][]int32),
	}
	s.homeR = lat.Grid.RowOf(comm.Rank())
	s.homeC = lat.Grid.ColOf(comm.Rank())
	local := make(map[int32]int32, len(ownedIDs))
	for i, id := range ownedIDs {
		local[id] = int32(i)
	}
	cur := graph.GetCursor(g)
	defer cur.Release()
	s.mass = make([]float64, len(ownedIDs))
	s.adj = make([][]neighborRef, len(ownedIDs))
	for i, id := range ownedIDs {
		s.mass[i] = float64(g.VertexWeight(id))
		refs := make([]neighborRef, 0, g.Degree(id))
		isBoundary := false
		nbrs, wgts := cur.Arcs(id)
		for k, nb := range nbrs {
			w := float64(wgts[k])
			if li, ok := local[nb]; ok {
				refs = append(refs, neighborRef{idx: li, w: w})
				continue
			}
			isBoundary = true
			slot, ok := s.ghostSlot[nb]
			if !ok {
				slot = int32(len(s.ghostIDs))
				s.ghostSlot[nb] = slot
				s.ghostIDs = append(s.ghostIDs, nb)
			}
			refs = append(refs, neighborRef{idx: slot, w: w, ghost: true})
		}
		s.adj[i] = refs
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
		s.recvFrom[o] = slots
	}
	got := mpi.AllToAllV(s.comm, requests, 4)
	for r, ids := range got {
		if r == comm.Rank() || len(ids) == 0 {
			continue
		}
		idxs := make([]int32, len(ids))
		for i, id := range ids {
			li, ok := local[id]
			if !ok {
				panic("embed: subscription request for vertex not owned here")
			}
			idxs[i] = li
		}
		s.sendTo[r] = idxs
	}
	s.subS = boxSubCells
	s.betas = make([]beta, lat.Grid.Size()*s.subS*s.subS)
	s.myCells = make([]beta, s.subS*s.subS)
	s.inherit = make([]geometry.Vec2, s.subS*s.subS)
	s.moves = make([]geometry.Vec2, len(s.pos))
	s.nbrs = lat.Grid.Neighbors(comm.Rank())
	s.cellSums = make([]geometry.Vec2, s.subS*s.subS)
	s.rankAggs = make([]beta, lat.Grid.Size())
	s.recvCells = make([]beta, s.subS*s.subS)
	s.nbrBufs = make([]*mpi.VecBuf[float64], 0, len(s.nbrs))
	s.ring = make([][]int, s.subS*s.subS)
	rows, cols := s.cellRows(), s.cellCols()
	for cy := 0; cy < s.subS; cy++ {
		for cx := 0; cx < s.subS; cx++ {
			gi := s.globalCell(cy, cx)
			gr, gc := gi/cols, gi%cols
			var out []int
			for dr := -1; dr <= 1; dr++ {
				for dc := -1; dc <= 1; dc++ {
					nr, ncl := gr+dr, gc+dc
					if nr < 0 || nr >= rows || ncl < 0 || ncl >= cols {
						continue
					}
					// Outside this box = a different rank's cell.
					if nr/s.subS != s.homeR || ncl/s.subS != s.homeC {
						out = append(out, nr*cols+ncl)
					}
				}
			}
			s.ring[cy*s.subS+cx] = out
		}
	}
	s.step = NewStepController(fp.K)
	s.initHostpar()
	return s
}

// Cell-grid geometry: the global repulsion lattice has
// (Grid.Rows·subS) × (Grid.Cols·subS) cells; rank (br,bc) owns the
// subS×subS block starting at (br·subS, bc·subS). betas is row-major
// over this global grid.

// cellRows and cellCols are the global cell-grid dimensions.
func (s *levelState) cellCols() int { return s.lat.Grid.Cols * s.subS }
func (s *levelState) cellRows() int { return s.lat.Grid.Rows * s.subS }

// globalCell converts a local cell (cy,cx) to a global cell index.
func (s *levelState) globalCell(cy, cx int) int {
	gr := s.homeR*s.subS + cy
	gc := s.homeC*s.subS + cx
	return gr*s.cellCols() + gc
}

// cellBase returns the global index of another rank's first cell row
// offset; used when scattering gathered cells.
func (s *levelState) placeCells(rank int, cells []beta) {
	br := s.lat.Grid.RowOf(rank)
	bc := s.lat.Grid.ColOf(rank)
	for cy := 0; cy < s.subS; cy++ {
		gr := br*s.subS + cy
		copy(s.betas[gr*s.cellCols()+bc*s.subS:gr*s.cellCols()+bc*s.subS+s.subS],
			cells[cy*s.subS:(cy+1)*s.subS])
	}
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
	for r := 0; r < s.comm.Size(); r++ {
		idxs, ok := s.sendTo[r]
		if !ok {
			continue
		}
		buf := mpi.Vec2Bufs.Get(len(idxs))
		s.packGhostPayload(buf.Data, idxs)
		mpi.SendVec(s.comm, r, buf, 16)
	}
	for r := 0; r < s.comm.Size(); r++ {
		slots, ok := s.recvFrom[r]
		if !ok {
			continue
		}
		b := mpi.RecvVec[geometry.Vec2](s.comm, r)
		if len(b.Data) != len(slots) {
			// A corrupted (truncated) refresh must not index out of
			// range and must not strand the pooled transport buffer.
			n := len(b.Data)
			b.Release()
			panic(fmt.Errorf("embed: ghost refresh from rank %d carried %d coordinates, want %d at comm event %d (truncated payload?)", r, n, len(slots), s.comm.Events()-1))
		}
		s.applyGhostUpdate(slots, b.Data)
		b.Release()
	}
}

func (s *levelState) applyGhostUpdate(slots []int32, payload []geometry.Vec2) {
	s.installGhosts(slots, payload)
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
	for _, r := range s.nbrs {
		buf := mpi.Float64Bufs.Get(3*nc + 2*len(s.sendTo[r]))
		d := buf.Data
		for i, b := range s.myCells {
			d[3*i], d[3*i+1], d[3*i+2] = b.Phi.X, b.Phi.Y, b.Mu
		}
		s.packCoordPayload(d, 3*nc, s.sendTo[r])
		bufs = append(bufs, buf)
	}
	s.nbrBufs = bufs
	mpi.NeighborExchange(s.comm, s.nbrs, bufs, 8, func(_, r int, d []float64) {
		if want := 3*nc + 2*len(s.recvFrom[r]); len(d) != want {
			// NeighborExchange releases the transport buffer under
			// defer, so rejecting a truncated payload here cannot leak.
			panic(fmt.Errorf("embed: neighbour payload from rank %d carried %d values, want %d at comm event %d (truncated payload?)", r, len(d), want, s.comm.Events()-1))
		}
		for j := range s.recvCells {
			s.recvCells[j] = beta{
				Phi: geometry.Vec2{X: d[3*j], Y: d[3*j+1]},
				Mu:  d[3*j+2],
			}
		}
		s.placeCells(r, s.recvCells)
		s.installGhostsFlat(s.recvFrom[r], d, 3*nc)
	})
}

// refreshBetasGlobal gathers every rank's sub-cell special vertices
// (the once-per-block collective of the paper). The contribution is
// staged into one of two alternating buffers rather than a fresh copy:
// remote ranks read the gathered slice after the collective returns,
// and the next boundary's collective is a synchronisation point no rank
// can pass while another still reads the previous contribution, so two
// buffers make the reuse race-free.
func (s *levelState) refreshBetasGlobal() {
	s.computeCells()
	buf := append(s.gatherBuf[s.gatherFlip][:0], s.myCells...)
	s.gatherBuf[s.gatherFlip] = buf
	s.gatherFlip ^= 1
	all := mpi.AllGather(s.comm, buf, 24*len(buf))
	for r, cells := range all {
		s.placeCells(r, cells)
	}
}

// rescale multiplies every coordinate and the lattice geometry by f,
// moving the layout toward its force equilibrium (attraction scales as
// f², repulsion as 1/f). Every rank applies the same factor, so box
// ownership and all relative geometry are preserved.
func (s *levelState) rescale(f float64) {
	// Element-wise scale: exact for any chunking. The ghost/beta/cut
	// loops below stay serial — they are a small constant share.
	s.hp.scaleF = f
	hostpar.ForChunked(len(s.pos), grainCopy, s.hp.fnScalePos)
	for i := range s.ghostPos {
		s.ghostPos[i] = s.ghostPos[i].Scale(f)
		s.ghostClamped[i] = s.ghostClamped[i].Scale(f)
	}
	for i := range s.betas {
		s.betas[i].Phi = s.betas[i].Phi.Scale(f)
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

// cbrt is math.Cbrt without pulling the import into the hot path docs.
func cbrt(x float64) float64 {
	if x <= 0 {
		return 1
	}
	// Newton iterations from a decent seed are plenty here.
	y := x
	if y > 1 {
		for y > 8 {
			y /= 8
		}
	} else {
		for y < 0.125 {
			y *= 8
		}
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
	Lat      *Lattice
	OwnedIDs []int32
	OwnedPos []geometry.Vec2
	GhostIDs []int32
	GhostPos []geometry.Vec2

	ghostSlot map[int32]int32
	localSlot map[int32]int32
}

// finish freezes the level state into a Distributed embedding after a
// final full ghost refresh.
func (s *levelState) finish() *Distributed {
	s.pushGhosts()
	d := &Distributed{
		Lat:       s.lat,
		OwnedIDs:  s.ownedIDs,
		OwnedPos:  s.pos,
		GhostIDs:  s.ghostIDs,
		GhostPos:  s.ghostPos,
		ghostSlot: s.ghostSlot,
		localSlot: make(map[int32]int32, len(s.ownedIDs)),
	}
	for i, id := range s.ownedIDs {
		d.localSlot[id] = int32(i)
	}
	return d
}

// PosOf returns the coordinate of an owned or ghost vertex.
func (d *Distributed) PosOf(id int32) (geometry.Vec2, bool) {
	if li, ok := d.localSlot[id]; ok {
		return d.OwnedPos[li], true
	}
	if gi, ok := d.ghostSlot[id]; ok {
		return d.GhostPos[gi], true
	}
	return geometry.Vec2{}, false
}

// Owns reports whether id is owned by this rank.
func (d *Distributed) Owns(id int32) bool {
	_, ok := d.localSlot[id]
	return ok
}

// LocalSlot returns the OwnedIDs/OwnedPos index of an owned vertex.
// Views built outside ParallelEmbed/SplitCoords (tests, benchmarks)
// may lack the index maps; they are rebuilt on first use.
func (d *Distributed) LocalSlot(id int32) (int32, bool) {
	if d.localSlot == nil {
		d.localSlot = make(map[int32]int32, len(d.OwnedIDs))
		for i, v := range d.OwnedIDs {
			d.localSlot[v] = int32(i)
		}
	}
	li, ok := d.localSlot[id]
	return li, ok
}

// GhostSlot returns the GhostIDs/GhostPos index of a ghost vertex.
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
