package geopart

import (
	"cmp"
	"slices"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/refine"
)

// Full-cut boundary-FM refinement (ROADMAP item 4, per arXiv
// 0910.2004): where the strip pass only frees vertices near the
// separating circle, this driver frees every vertex incident to a cut
// edge, wherever the embedding put it. Each round: extract the local
// boundary from the view's resolved adjacency, gather (id, side)
// records of the global boundary and its locked one-hop ring, and run
// the same solveRound as refineStrip: rank 0 solves the FM subproblem
// and broadcasts the flips. Rounds stop when a solve yields no gain or
// the boundary empties.
//
// The pass runs only when ParallelConfig.FullCutRounds is positive
// (default 0), so the historical strip-only pipeline stays
// bit-identical.

// byID concatenates the gathered free records and sorts them by vertex
// id, once per collective; the result is shared read-only, and each
// rank looks its ghosts up in it by binary search.
func byID(parts [][]refine.SideRecord) []refine.SideRecord {
	all := mpi.Concat(parts)
	slices.SortFunc(all, func(a, b refine.SideRecord) int { return cmp.Compare(a.ID, b.ID) })
	return all
}

// freeSetOutcomeBytes is the fixed bookkeeping payload of the
// broadcast outcome (gain, side weights, free count), on top of one
// byte per gathered record.
const freeSetOutcomeBytes = 32

// solveRound is the solve-broadcast-apply tail of every distributed FM
// round (the strip pass, the full-cut rounds and core's combine): rank
// 0 solves the gathered records, every rank receives the outcome, and
// the flips are applied to side. all is identical on every rank, so the
// broadcast payload, modeled from its length, costs the same
// everywhere.
//
// side is indexed by the view's slots: side[:nOwn] holds the owned
// vertices' sides, and when side also covers the ghost slots
// (nOwn+len(d.GhostIDs) entries) the flips of ghost copies land there,
// so the caller's replica stays current in one loop. Every round
// solves at refine.BalanceTol with fmPasses passes.
func solveRound(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, all []refine.SideRecord, side []int32, sideW [2]int64, totalW int64) refine.FreeSetResult {
	var out refine.FreeSetResult
	if c.Rank() == 0 {
		out = refine.SolveFreeSet(g, all, sideW, totalW, refine.BalanceTol, fmPasses)
		c.Charge(float64(out.Free) * 20)
	}
	out = c.Bcast(0, out, freeSetOutcomeBytes+len(all)).(refine.FreeSetResult)
	nOwn := len(d.OwnedIDs)
	for _, id := range out.Flips {
		if li, ok := d.LocalSlot(id); ok {
			side[li] = 1 - side[li]
		} else if len(side) > nOwn {
			if gi, ok := d.GhostSlot(id); ok {
				side[nOwn+int(gi)] = 1 - side[nOwn+int(gi)]
			}
		}
	}
	return out
}

// RefineFreeSet runs one distributed gather-solve-broadcast FM round
// over an explicitly chosen free set: freeMask marks this rank's owned
// vertices that may move, and side is this rank's slot-indexed side
// replica (see solveRound), updated in place. All ranks receive the
// same outcome. Exported because core's evolutionary combine operator
// frees the disagreement region of two parent partitions through
// exactly this round.
//
// The locked ring is scanned over the view's resolved adjacency: an
// owned neighbour is free by freeMask, a ghost by one binary search per
// ghost in the id-sorted free records that the first gather shares.
// Arcs to slot -1 (a neighbour neither owned nor ghosted here)
// are skipped, as in the strip pass; both production view
// constructors, ParallelEmbed and SplitCoords, ghost every neighbour,
// so no arc is skipped on their views.
func RefineFreeSet(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, freeMask []bool, side []int32, sideW [2]int64, totalW int64) refine.FreeSetResult {
	// Gather the global free set.
	var recs []refine.SideRecord
	for i, id := range d.OwnedIDs {
		if freeMask[i] {
			recs = append(recs, refine.SideRecord{ID: id, Side: int8(side[i]), Free: true})
		}
	}
	free := mpi.AllGatherVWith(c, recs, refine.SideRecordBytes, byID)
	if len(free) == 0 {
		// Collective-consistent: the gathered length is identical on
		// every rank.
		return refine.FreeSetResult{SideW: sideW}
	}
	// Gather the locked ring: owned vertices outside the free set that
	// neighbour any free vertex anywhere. Membership must be checked
	// against the *global* free set — a neighbour across a rank border
	// is invisible to the local mask.
	nOwn := len(d.OwnedIDs)
	slotFree := append(make([]bool, 0, nOwn+len(d.GhostIDs)), freeMask...)
	for _, id := range d.GhostIDs {
		_, ok := slices.BinarySearchFunc(free, id, func(r refine.SideRecord, id int32) int {
			return cmp.Compare(r.ID, id)
		})
		slotFree = append(slotFree, ok)
	}
	start, slot, _ := d.Adjacency(g)
	ring := recs[:0:0]
	for i, id := range d.OwnedIDs {
		if freeMask[i] {
			continue
		}
		for a := start[i]; a < start[i+1]; a++ {
			if s := slot[a]; s >= 0 && slotFree[s] {
				ring = append(ring, refine.SideRecord{ID: id, Side: int8(side[i])})
				break
			}
		}
	}
	c.Charge(float64(nOwn)) // the ring scan
	// The free records followed by the ring records, built once; free is
	// identical on every rank, so the derive may read it.
	all := mpi.AllGatherVWith(c, ring, refine.SideRecordBytes, func(parts [][]refine.SideRecord) []refine.SideRecord {
		return mpi.Concat(append([][]refine.SideRecord{free}, parts...))
	})
	return solveRound(c, g, d, all, side, sideW, totalW)
}

// refineFullCut applies cfg.FullCutRounds rounds of full-cut boundary
// FM after strip refinement. side is this rank's slot-indexed side
// replica under the winning candidate, strip flips already applied; its
// owned prefix is res.Side. Each round's boundary extraction reads it,
// and RefineFreeSet keeps it current.
func refineFullCut(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, cfg ParallelConfig, side []int32, totalW int64, res *ParallelResult) {
	c.SetPhase("refine-full")
	nOwn := len(d.OwnedIDs)
	start, slot, _ := d.Adjacency(g)
	freeMask := make([]bool, nOwn)
	for round := 0; round < cfg.FullCutRounds; round++ {
		// Local boundary extraction over the view's resolved adjacency,
		// which lists every arc of an owned vertex in both directions.
		for i := 0; i < nOwn; i++ {
			freeMask[i] = false
			si := side[i]
			for a := start[i]; a < start[i+1]; a++ {
				if s := slot[a]; s >= 0 && side[s] != si {
					freeMask[i] = true
					break
				}
			}
		}
		c.Charge(float64(nOwn)) // the boundary scan
		out := RefineFreeSet(c, g, d, freeMask, side, res.SideW, totalW)
		if out.Free == 0 {
			break
		}
		res.Cut -= out.Gain
		res.SideW = out.SideW
		res.Imbalance = graph.Imbalance2(res.SideW[0], res.SideW[1])
		res.Boundary = out.Free
		if out.Gain <= 0 {
			break
		}
	}
}
