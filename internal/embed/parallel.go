package embed

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"

	"repro/internal/coarsen"
	"repro/internal/geometry"
	"repro/internal/hostpar"
	"repro/internal/mpi"
)

// ParallelOptions configures the multilevel fixed-lattice parallel
// embedding, whose forces are DefaultForceParams.
type ParallelOptions struct {
	BlockSize    int // iterations between global refreshes (paper: 2–8), default 4
	IterCoarsest int // default 200
	IterSmooth   int // per finer level, default 30
	Seed         int64
}

func (o ParallelOptions) withDefaults() ParallelOptions {
	if o.BlockSize == 0 {
		o.BlockSize = 4
	}
	if o.IterCoarsest == 0 {
		o.IterCoarsest = 200
	}
	if o.IterSmooth == 0 {
		o.IterSmooth = 30
	}
	return o
}

// idPos is a routed vertex: id plus current coordinate.
type idPos struct {
	ID int32
	P  geometry.Vec2
}

// ParallelEmbed runs the paper's multilevel fixed-lattice embedding
// over the hierarchy h (which must have been built for c.Size() ranks):
// the coarsest graph is embedded from random coordinates on its few
// active ranks, then each finer level inherits scaled, jittered
// coordinates, is re-distributed onto a quadrupled processor grid via
// the quantile lattice, and smoothed with the fixed-lattice scheme.
// Every rank of c must call it; the return value is this rank's
// distributed share of the finest-level embedding.
func ParallelEmbed(c *mpi.Comm, h *coarsen.Hierarchy, opt ParallelOptions) *Distributed {
	opt = opt.withDefaults()
	last := len(h.Levels) - 1
	var st *levelState
	for li := last; li >= 0; li-- {
		lev := &h.Levels[li]
		sub := c.SubComm(lev.Ranks)
		if sub == nil {
			continue // this rank is not active yet
		}
		sub.SetPhase("embed/L" + strconv.Itoa(li))
		if li == last {
			st = initCoarsest(sub, lev, opt)
			st.Smooth(opt.IterCoarsest, opt.BlockSize)
			continue
		}
		st = projectLevel(sub, h, li, st, opt)
		st.Smooth(opt.IterSmooth, opt.BlockSize)
	}
	if st == nil {
		// This rank never activated: the hierarchy folded the embedding
		// onto fewer ranks than the world holds (small graph, large P).
		// It owns nothing but still participates in later full-world
		// collectives.
		return &Distributed{}
	}
	return st.finish()
}

// initCoarsest assigns deterministic random coordinates to the coarsest
// graph and sets up its lattice. Every active rank streams the same
// seeded coordinate sequence, so box ownership and ghost owners are
// locally computable; the modeled cost charges the generation and one
// synchronising broadcast.
//
// The coordinates are never materialised as a full []Vec2: each pass
// regenerates the sequence from the seed and keeps only what it needs
// (per-axis samples for the lattice cuts, then this rank's owned
// points). That bounds the per-rank footprint by the owned share
// instead of n, while drawing the RNG in exactly the original X-then-Y
// order, so lattices, ownership, and clocks stay bit-identical.
func initCoarsest(sub *mpi.Comm, lev *coarsen.Level, opt ParallelOptions) *levelState {
	g := lev.G
	n := g.NumVertices()
	seed := opt.Seed<<8 + 101
	side := DefaultForceParams().K * math.Sqrt(float64(n))
	// Pass 1: per-axis samples for the quantile cuts.
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64() * side
		ys[i] = rng.Float64() * side
	}
	bounds := geometry.Rect{X0: 0, Y0: 0, X1: side, Y1: side}
	grid := mpi.GridFor(sub.Size())
	lat := newLatticeFromAxes(grid, xs, ys, bounds)
	// Pass 2: regenerate the sequence, keeping only owned points.
	rng = rand.New(rand.NewSource(seed))
	ownedIDs := make([]int32, 0, n/sub.Size()+16)
	pos := make([]geometry.Vec2, 0, n/sub.Size()+16)
	for i := 0; i < n; i++ {
		x := rng.Float64() * side
		y := rng.Float64() * side
		p := geometry.Vec2{X: x, Y: y}
		if lat.RankOf(p) == sub.Rank() {
			ownedIDs = append(ownedIDs, int32(i))
			pos = append(pos, p)
		}
	}
	// Ghost owners stream the sequence once more at subscription time,
	// picking out just the requested ids.
	ownerOf := func(ids []int32) []int {
		slot := make(map[int32]int, len(ids))
		for i, id := range ids {
			slot[id] = i
		}
		out := make([]int, len(ids))
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			x := r.Float64() * side
			y := r.Float64() * side
			if j, ok := slot[int32(i)]; ok {
				out[j] = lat.RankOf(geometry.Vec2{X: x, Y: y})
			}
		}
		return out
	}
	sub.Charge(float64(n))
	sub.Bcast(0, nil, 16*n)
	return newLevelState(sub, lat, g, ownedIDs, pos, ownerOf, DefaultForceParams())
}

// projectLevel carries the embedding from level li+1 down to level li:
// coordinates are scaled ×2, fine vertices are jittered around their
// coarse parent, the lattice is rebuilt for the quadrupled grid from a
// coordinate sample, vertices are routed to their new owners, and ghost
// owners are resolved through a distributed directory.
func projectLevel(sub *mpi.Comm, h *coarsen.Hierarchy, li int, coarse *levelState, opt ParallelOptions) *levelState {
	fineLev := &h.Levels[li]
	g := fineLev.G
	jrng := rand.New(rand.NewSource(opt.Seed<<8 + int64(li)*1009 + int64(sub.Rank())))
	// The per-point loops below run on the ranks that hold coarse
	// points, so they share the host's workers (see chunkCap).
	var created []idPos
	width, ranks := sub.Workers(), sub.Size()
	if coarse != nil {
		ranks = coarse.comm.Size()
		nKids := 0
		for _, cid := range coarse.ownedIDs {
			nKids += len(fineLev.ChildrenOf(cid))
		}
		// Jitter draws must stay a single serial RNG stream; the
		// inheritance arithmetic is element-wise, so draw all jitters in
		// child order first, then fill the routed records in parallel via
		// per-parent prefix offsets.
		offs := make([]int, len(coarse.ownedIDs)+1)
		for ci, cid := range coarse.ownedIDs {
			offs[ci+1] = offs[ci] + len(fineLev.ChildrenOf(cid))
		}
		jit := make([]geometry.Vec2, nKids)
		for k := range jit {
			jit[k] = geometry.Vec2{
				X: jrng.Float64() - 0.5,
				Y: jrng.Float64() - 0.5,
			}.Scale(0.5 * DefaultForceParams().K)
		}
		created = make([]idPos, nKids)
		hostpar.ForN(len(coarse.ownedIDs), levelChunks(width, ranks, len(coarse.ownedIDs), 16), func(_, clo, chi int) {
			for ci := clo; ci < chi; ci++ {
				q := coarse.pos[ci].Scale(2)
				k := offs[ci]
				for _, v := range fineLev.ChildrenOf(coarse.ownedIDs[ci]) {
					created[k] = idPos{ID: v, P: q.Add(jit[k])}
					k++
				}
			}
		})
		coarse.comm.Charge(float64(len(created)) * 4)
	}
	// Global bounds of the projected coordinates. min/max is associative
	// and commutative, so chunked partial scans merged in chunk order
	// give exactly the serial result.
	lo := geometry.Vec2{X: math.Inf(1), Y: math.Inf(1)}
	hi := geometry.Vec2{X: math.Inf(-1), Y: math.Inf(-1)}
	if len(created) > 0 {
		chunks := levelChunks(width, ranks, len(created), 1024)
		pLo := make([]geometry.Vec2, chunks)
		pHi := make([]geometry.Vec2, chunks)
		hostpar.ForN(len(created), chunks, func(c, clo, chi int) {
			l := geometry.Vec2{X: math.Inf(1), Y: math.Inf(1)}
			h := geometry.Vec2{X: math.Inf(-1), Y: math.Inf(-1)}
			for _, ip := range created[clo:chi] {
				l.X = math.Min(l.X, ip.P.X)
				l.Y = math.Min(l.Y, ip.P.Y)
				h.X = math.Max(h.X, ip.P.X)
				h.Y = math.Max(h.Y, ip.P.Y)
			}
			pLo[c], pHi[c] = l, h
		})
		for c := 0; c < chunks; c++ {
			lo.X = math.Min(lo.X, pLo[c].X)
			lo.Y = math.Min(lo.Y, pLo[c].Y)
			hi.X = math.Max(hi.X, pHi[c].X)
			hi.Y = math.Max(hi.Y, pHi[c].Y)
		}
	}
	lo = mpi.AllReduce(sub, lo, 16, func(a, b geometry.Vec2) geometry.Vec2 {
		return geometry.Vec2{X: math.Min(a.X, b.X), Y: math.Min(a.Y, b.Y)}
	})
	hi = mpi.AllReduce(sub, hi, 16, func(a, b geometry.Vec2) geometry.Vec2 {
		return geometry.Vec2{X: math.Max(a.X, b.X), Y: math.Max(a.Y, b.Y)}
	})
	bounds := geometry.Rect{X0: lo.X, Y0: lo.Y, X1: hi.X, Y1: hi.Y}.Expand(0.5 * DefaultForceParams().K)
	// Quantile lattice from a gathered sample.
	grid := mpi.GridFor(sub.Size())
	per := 4096/sub.Size() + 1
	var mySample []geometry.Vec2
	if len(created) > 0 {
		stride := len(created)/per + 1
		mySample = make([]geometry.Vec2, 0, len(created)/stride+1)
		for i := 0; i < len(created); i += stride {
			mySample = append(mySample, created[i].P)
		}
	}
	// The cuts are rank-identical (grid and bounds are too), so they
	// are computed once per gather; each rank copies them because
	// rescale scales its lattice in place.
	lat := mpi.AllGatherVWith(sub, mySample, 16, func(parts [][]geometry.Vec2) *Lattice {
		return NewLattice(grid, mpi.Concat(parts), bounds)
	}).clone()
	// Route vertices to their new owners: count first, then lay the
	// records out by destination in one exactly-sized buffer.
	// RankOf is a pure per-point lookup (two binary searches), so
	// precompute it in parallel; the count and fill passes stay serial
	// in point order, so each destination's record order is the point
	// order.
	destRank := make([]int32, len(created))
	hostpar.ForN(len(created), levelChunks(width, ranks, len(created), 512), func(_, clo, chi int) {
		for i := clo; i < chi; i++ {
			destRank[i] = int32(lat.RankOf(created[i].P))
		}
	})
	counts := make([]int32, sub.Size())
	for _, r := range destRank {
		counts[r]++
	}
	at := blockStarts(counts)
	send := make([]idPos, len(created))
	for i, ip := range created {
		send[at[destRank[i]]] = ip
		at[destRank[i]]++
	}
	mine := mpi.AllToAllV(sub, send, counts, 20)
	slices.SortFunc(mine, func(a, b idPos) int { return cmp.Compare(a.ID, b.ID) })
	ownedIDs := make([]int32, len(mine))
	pos := make([]geometry.Vec2, len(mine))
	for i, ip := range mine {
		ownedIDs[i] = ip.ID
		pos[i] = ip.P
	}
	// Ghost owners come from a distributed directory.
	ownerOf := func(ids []int32) []int { return resolveOwners(sub, ownedIDs, ids) }
	return newLevelState(sub, lat, g, ownedIDs, pos, ownerOf, DefaultForceParams())
}

// blockStarts returns where each rank's block starts in a buffer laid
// out by rank with counts[r] elements for rank r: the exclusive prefix
// sums of counts. Callers advance the entries as fill cursors.
func blockStarts(counts []int32) []int32 {
	at := make([]int32, len(counts))
	sum := int32(0)
	for r, n := range counts {
		at[r] = sum
		sum += n
	}
	return at
}

// resolveOwners resolves the owning rank of each ghost id through a
// distributed directory (vertex v is tracked by rank v mod P, at slot
// v/P of that rank's dense table),
// with registration and query coalesced into a single exchange: the
// message to directory rank d carries both the owned ids this rank
// registers at d and the ghost ids it needs d to resolve, framed as
// [nReg, nQuery, reg..., query...]. A second round returns the answers.
//
// The former protocol (register round, query round, answer round) sent
// each directory partner one message per payload kind; this one sends
// one message per partner each way, eliminating a full all-to-all round
// — so fault-free virtual clocks only decrease, and results are
// unchanged because the directory contents are identical.
//
// Both rounds move flat buffers, so beyond its payload a rank holds
// two arrays of P int32 across the exchanges (counts and nQuery), a
// third while it fills the requests, and no per-partner slices.
func resolveOwners(c *mpi.Comm, owned, ghosts []int32) []int {
	p := c.Size()
	// counts[d] is the length of the framed message to directory rank
	// d (zero when this rank neither registers nor queries there), and
	// nQuery[d] the number of ghosts queried at d.
	counts, nQuery := make([]int32, p), make([]int32, p)
	for _, id := range owned {
		counts[int(id)%p]++
	}
	for _, id := range ghosts {
		nQuery[int(id)%p]++
	}
	size := 0
	for d := range counts {
		if counts[d]+nQuery[d] > 0 {
			counts[d] += nQuery[d] + 2
		}
		size += int(counts[d])
	}
	buf := make([]int32, size)
	at := blockStarts(counts)
	for d, n := range counts {
		if n > 0 {
			buf[at[d]], buf[at[d]+1] = n-2-nQuery[d], nQuery[d]
			at[d] += 2
		}
	}
	for _, id := range owned {
		d := int(id) % p
		buf[at[d]] = id
		at[d]++
	}
	for _, id := range ghosts {
		d := int(id) % p
		buf[at[d]] = id
		at[d]++
	}
	got := mpi.AllToAllV(c, buf, counts, 4)
	// Register every owned id first, then answer the queries: a query
	// must see registrations from all ranks, not just earlier sources.
	// This rank is directory rank c.Rank() and tracks exactly the ids
	// congruent to it mod P, so dir[v/P] holds v's owner (-1 where no
	// rank registered v). counts now holds each source's message length.
	var dir []int32
	nAns := 0
	for src, off := 0, 0; src < p; src++ {
		msg := got[off : off+int(counts[src])]
		off += len(msg)
		if len(msg) == 0 {
			continue
		}
		if len(msg) < 2 || len(msg) != 2+int(msg[0])+int(msg[1]) {
			panic(fmt.Errorf("embed: directory request from rank %d carried %d values, not a framed message (truncated payload?)", src, len(msg)))
		}
		for _, id := range msg[2 : 2+int(msg[0])] {
			k := int(id) / p
			for len(dir) <= k {
				dir = append(dir, -1)
			}
			dir[k] = int32(src)
		}
		nAns += int(msg[1])
	}
	// The answers to each source go back in its query order; counts
	// becomes the number of answers per source.
	ans := make([]int32, 0, nAns)
	for src, off := 0, 0; src < p; src++ {
		msg := got[off : off+int(counts[src])]
		off += len(msg)
		counts[src] = 0
		if len(msg) == 0 {
			continue
		}
		for _, id := range msg[2+int(msg[0]):] {
			k := int(id) / p
			if k >= len(dir) || dir[k] < 0 {
				panic("embed: directory miss")
			}
			ans = append(ans, dir[k])
		}
		counts[src] = msg[1]
	}
	replies := mpi.AllToAllV(c, ans, counts, 4)
	for d, n := range counts {
		if n != nQuery[d] {
			panic(fmt.Errorf("embed: directory reply from rank %d carried %d owners, want %d (truncated payload?)", d, n, nQuery[d]))
		}
	}
	// The k-th ghost queried at directory rank d is answered by the
	// k-th entry of d's reply; nQuery becomes the read cursor of each
	// reply block.
	out := make([]int, len(ghosts))
	for d, off := 0, int32(0); d < p; d++ {
		nQuery[d], off = off, off+counts[d]
	}
	for i, id := range ghosts {
		d := int(id) % p
		out[i] = int(replies[nQuery[d]])
		nQuery[d]++
	}
	return out
}
