package geopart

import (
	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/refine"
)

// Full-cut boundary-FM refinement (ROADMAP item 4, per arXiv
// 0910.2004): where the strip pass only frees vertices near the
// separating circle, this driver frees every vertex incident to a cut
// edge, wherever the embedding put it. Each round: extract the local
// boundary from the edge topology cache, gather (id, side) records of
// the global boundary and its locked one-hop ring, solve the FM
// subproblem on rank 0, and broadcast the flips — the same
// gather/solve/broadcast shape as refineStrip, so the communication
// pattern is already proven on the high-P collectives. Rounds stop
// when a solve yields no gain or the boundary empties.
//
// The pass is gated by refine.SetFullCut (default off) so the
// historical strip-only pipeline stays bit-identical; see ISSUE 10's
// bit-identity guard.

// gatheredFree is the global free set of one RefineFreeSet round,
// built once per gather and shared read-only: the records in rank
// order and the set of their ids.
type gatheredFree struct {
	recs []refine.SideRecord
	ids  map[int32]bool
}

func gatherFree(parts [][]refine.SideRecord) gatheredFree {
	recs := mpi.Concat(parts)
	ids := make(map[int32]bool, len(recs))
	for _, r := range recs {
		ids[r.ID] = true
	}
	return gatheredFree{recs: recs, ids: ids}
}

// freeSetOutcomeBytes is the fixed bookkeeping payload of the
// broadcast outcome (gain, side weights, free count), on top of one
// byte per gathered record.
const freeSetOutcomeBytes = 32

// RefineFreeSet runs one distributed gather-solve-broadcast FM round
// over an explicitly chosen free set: freeMask marks this rank's owned
// vertices that may move, side holds their current sides and is
// updated in place. All ranks receive the same outcome; the returned
// flips let callers update replicated side state (ghost copies, slot
// arrays). Exported because core's evolutionary combine operator frees
// the disagreement region of two parent partitions through exactly
// this round.
func RefineFreeSet(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, freeMask []bool, side []int32, sideW [2]int64, totalW int64, tol float64, passes int) refine.FreeSetResult {
	// Gather the global free set.
	var recs []refine.SideRecord
	for i, id := range d.OwnedIDs {
		if freeMask[i] {
			recs = append(recs, refine.SideRecord{ID: id, Side: int8(side[i]), Free: true})
		}
	}
	free := mpi.AllGatherVWith(c, recs, refine.SideRecordBytes, gatherFree)
	if len(free.recs) == 0 {
		// Collective-consistent: the gathered length is identical on
		// every rank.
		return refine.FreeSetResult{SideW: sideW}
	}
	// Gather the locked ring: owned vertices outside the free set that
	// neighbour any free vertex anywhere. Membership must be checked
	// against the *global* free set — a neighbour across a rank border
	// is invisible to the local mask.
	cur := graph.GetCursor(g)
	ring := recs[:0:0]
	for i, id := range d.OwnedIDs {
		if freeMask[i] {
			continue
		}
		nbrs, _ := cur.Arcs(id)
		for _, nb := range nbrs {
			if free.ids[nb] {
				ring = append(ring, refine.SideRecord{ID: id, Side: int8(side[i])})
				break
			}
		}
	}
	cur.Release()
	c.Charge(float64(len(d.OwnedIDs))) // the ring scan
	// The free records followed by the ring records, built once; free is
	// identical on every rank, so the derive may read it.
	all := mpi.AllGatherVWith(c, ring, refine.SideRecordBytes, func(parts [][]refine.SideRecord) []refine.SideRecord {
		return mpi.Concat(append([][]refine.SideRecord{free.recs}, parts...))
	})

	// Rank 0 solves; everyone receives the flips. The broadcast payload
	// is modeled from the gathered record counts, identical on all
	// ranks, so the collective cost is symmetric.
	var out refine.FreeSetResult
	if c.Rank() == 0 {
		out = refine.SolveFreeSet(g, all, sideW, totalW, tol, passes)
		c.Charge(float64(out.Free) * 20)
	}
	got := c.Bcast(0, out, freeSetOutcomeBytes+len(all))
	out = got.(refine.FreeSetResult)
	for _, id := range out.Flips {
		if li, ok := d.LocalSlot(id); ok {
			side[li] = 1 - side[li]
		}
	}
	return out
}

// refineFullCut applies cfg.FullCutRounds rounds of full-cut boundary
// FM after strip refinement. ghostSide is this rank's replica of its
// ghosts' sides under the winning candidate (strip flips already
// applied); it is updated alongside res.Side as flips arrive, because
// the next round's boundary extraction reads both.
func refineFullCut(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, cfg ParallelConfig, ec *edgeCache, ghostSide []int8, totalW int64, res *ParallelResult) {
	c.SetPhase("refine-full")
	nOwn, nGhost := ec.nOwn, ec.nGhost
	slotSide := make([]int8, nOwn+nGhost)
	for i, s := range res.Side {
		slotSide[i] = int8(s)
	}
	copy(slotSide[nOwn:], ghostSide)
	freeMask := make([]bool, nOwn)
	for round := 0; round < cfg.FullCutRounds; round++ {
		// Local boundary extraction over the full resolved adjacency.
		// The cut-edge view (cutA/cutB) only stores nb > id arcs, so the
		// larger-id endpoint of a cut edge would miss its boundary
		// status there; the full slot array sees both directions.
		for i := 0; i < nOwn; i++ {
			freeMask[i] = false
			si := slotSide[i]
			for a := ec.start[i]; a < ec.start[i+1]; a++ {
				if s := ec.slot[a]; s >= 0 && slotSide[s] != si {
					freeMask[i] = true
					break
				}
			}
		}
		c.Charge(float64(nOwn)) // the boundary scan
		out := RefineFreeSet(c, g, d, freeMask, res.Side, res.SideW, totalW, cfg.BalanceTol, cfg.FMPasses)
		if out.Free == 0 {
			break
		}
		for _, id := range out.Flips {
			if li, ok := d.LocalSlot(id); ok {
				slotSide[li] = int8(res.Side[li]) // RefineFreeSet already flipped res.Side
			} else if gi, ok := d.GhostSlot(id); ok {
				ghostSide[gi] = 1 - ghostSide[gi]
				slotSide[nOwn+int(gi)] = ghostSide[gi]
			}
		}
		res.Cut -= out.Gain
		res.SideW = out.SideW
		res.Imbalance = imbalance2(res.SideW[0], res.SideW[1])
		res.Boundary = out.Free
		if out.Gain <= 0 {
			break
		}
	}
}
