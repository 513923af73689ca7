package embed

import (
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/hostpar"
	"repro/internal/mpi"
)

// Grains and chunk cap of SplitCoords' host-parallel passes.
const (
	grainSplitVertex = 4096 // owner lookup and owned-id fill per vertex
	// maxSplitChunks caps the per-rank pass's chunk count: each chunk
	// holds an n-entry ghost index, so the cap bounds that transient
	// state at 4·maxSplitChunks bytes per vertex.
	maxSplitChunks = 8
)

// SplitCoords precomputes per-rank Distributed views of already-known
// vertex coordinates over a quantile lattice for p ranks. It serves the
// partition-only entry points (Figure 4, dynamic repartitioning):
// coordinates are assumed to already live on their owners, so the split
// is charged to no virtual clock. The host still pays for it on every
// call (perfbench reports it as embed.split_s), so it runs on the
// hostpar pool and resolves ownership through dense arrays instead of
// per-rank maps: owner[v] and local[v] (v's index in its owner's
// OwnedIDs) are host set-up state that no rank sees, and every view
// leaves with its adjacency, arc weights included, already resolved to
// slots (see Adjacency).
// Owned ids are in vertex order and ghosts in first-encounter order, so
// the views are identical at every worker count.
//
// It panics when len(coords) != g.NumVertices() or p < 1; the core
// entry points validate their input before calling it.
func SplitCoords(g *graph.Graph, coords []geometry.Vec2, p int) []*Distributed {
	n := g.NumVertices()
	if len(coords) != n {
		panic("embed: SplitCoords coordinate count mismatch")
	}
	grid := mpi.GridFor(p)
	var bounds geometry.Rect // an empty graph splits into empty views
	if n > 0 {
		bounds = geometry.BoundingRect(coords)
	}
	bounds = bounds.Expand(1e-9)
	// Sample for quantile cuts: every k-th point, about 8192 of them.
	stride := n/8192 + 1
	sample := make([]geometry.Vec2, 0, n/stride+1)
	for i := 0; i < n; i += stride {
		sample = append(sample, coords[i])
	}
	lat := NewLattice(grid, sample, bounds)

	// Owner pass, element-wise; each chunk also counts its vertices per
	// rank, so the fill pass below can place them without a second scan.
	chunks := hostpar.NumChunks(n, grainSplitVertex)
	owner := make([]int32, n)
	next := make([]int32, chunks*p) // next[c*p+r]: chunk c's cursor into rank r
	hostpar.ForN(n, chunks, func(c, lo, hi int) {
		cnt := next[c*p : (c+1)*p]
		for v := lo; v < hi; v++ {
			r := int32(lat.RankOf(coords[v]))
			owner[v] = r
			cnt[r]++
		}
	})
	// Exclusive prefix over (rank, chunk): rank r's owned ids occupy
	// ids[rankStart[r]:rankStart[r+1]], chunk by chunk, so each rank's
	// list is in vertex order.
	rankStart := make([]int32, p+1)
	for r := 0; r < p; r++ {
		off := int32(0)
		for c := 0; c < chunks; c++ {
			k := next[c*p+r]
			next[c*p+r] = off
			off += k
		}
		rankStart[r+1] = rankStart[r] + off
	}
	ids := make([]int32, n)
	pos := make([]geometry.Vec2, n)
	local := make([]int32, n)
	hostpar.ForN(n, chunks, func(c, lo, hi int) {
		cur := next[c*p : (c+1)*p]
		for v := lo; v < hi; v++ {
			r := owner[v]
			li := cur[r]
			cur[r]++
			local[v] = li
			ids[rankStart[r]+li] = int32(v)
			pos[rankStart[r]+li] = coords[v]
		}
	})

	views := make([]*Distributed, p)
	weighted := g.EdgeWeighted()
	hostpar.ForN(p, min(hostpar.NumChunks(p, 1), maxSplitChunks), func(_, lo, hi int) {
		cur := graph.GetCursor(g)
		defer cur.Release()
		// ghostAt[v] is v's ghost index in the rank being built, valid
		// only if ghosts[ghostAt[v]] == v: the ghost list itself is the
		// stamp, so the index is never cleared between ranks.
		ghostAt := make([]int32, n)
		var ghosts []int32
		for r := lo; r < hi; r++ {
			a, b := rankStart[r], rankStart[r+1]
			owned := ids[a:b:b]
			nOwn := int32(len(owned))
			start := make([]int32, nOwn+1)
			for i, id := range owned {
				start[i+1] = start[i] + int32(g.Degree(id))
			}
			slot := make([]int32, start[nOwn])
			var w []int32
			if weighted {
				w = make([]int32, start[nOwn])
			}
			ghosts = ghosts[:0]
			k := 0
			for _, id := range owned {
				nbrs, wgts := cur.Arcs(id)
				if w != nil {
					copy(w[k:], wgts)
				}
				for _, nb := range nbrs {
					if owner[nb] == int32(r) {
						slot[k] = local[nb]
					} else {
						gi := ghostAt[nb]
						if int(gi) >= len(ghosts) || ghosts[gi] != nb {
							gi = int32(len(ghosts))
							ghostAt[nb] = gi
							ghosts = append(ghosts, nb)
						}
						slot[k] = nOwn + gi
					}
					k++
				}
			}
			ghostIDs := make([]int32, len(ghosts))
			ghostPos := make([]geometry.Vec2, len(ghosts))
			for i, id := range ghosts {
				ghostIDs[i] = id
				ghostPos[i] = coords[id]
			}
			views[r] = &Distributed{
				Lat:      lat,
				OwnedIDs: owned,
				OwnedPos: pos[a:b:b],
				GhostIDs: ghostIDs,
				GhostPos: ghostPos,
				adjStart: start,
				adjSlot:  slot,
				adjW:     w,
			}
		}
	})
	return views
}
