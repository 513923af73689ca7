package coarsen

import (
	"strconv"

	"repro/internal/graph"
	"repro/internal/hostpar"
	"repro/internal/mpi"
)

// BoundaryEdges counts, for every hierarchy level and rank, the edges
// crossing out of the rank's ownership block — the halo volume of
// distributed matching. Precomputed once per hierarchy and shared by
// every simulated rank. The per-rank scans are independent (each rank
// owns a disjoint vertex block and writes only its own counter), so
// they fan out over the host worker pool — embarrassingly parallel over
// ranks within each level.
func BoundaryEdges(h *Hierarchy) [][]int64 {
	out := make([][]int64, len(h.Levels))
	for li := range h.Levels {
		lev := &h.Levels[li]
		counts := make([]int64, lev.Ranks)
		hostpar.For(lev.Ranks, 1, func(r int) {
			cur := graph.GetCursor(lev.G)
			defer cur.Release()
			begin, end := lev.Offsets[r], lev.Offsets[r+1]
			n := int64(0)
			for v := begin; v < end; v++ {
				nbrs, _ := cur.Arcs(v)
				for _, nb := range nbrs {
					if nb < begin || nb >= end {
						n++
					}
				}
			}
			counts[r] = n
		})
		out[li] = counts
	}
	return out
}

// ChargeCosts replays the modeled cost of distributed heavy-edge-
// matching coarsening on the calling rank: per retained level, the
// local matching and contraction work, `rounds` match-negotiation
// rounds (halo exchange plus a reduction each), and the all-gather that
// assembles the coarse graph. The hierarchy itself was computed
// up-front — blocked matching is deterministic per block, so the
// precomputed result equals what the distributed run would produce —
// and only the costs are replayed here.
func ChargeCosts(c *mpi.Comm, h *Hierarchy, boundary [][]int64, rounds, stepsPerLevel int) {
	m := c.Model()
	for li := 0; li+1 < len(h.Levels); li++ {
		lev := &h.Levels[li]
		sub := c.SubComm(lev.Ranks)
		if sub == nil {
			continue
		}
		sub.SetPhase("coarsen/L" + strconv.Itoa(li))
		r := sub.Rank()
		begin, end := lev.Offsets[r], lev.Offsets[r+1]
		myVerts := float64(end - begin)
		myEdges := float64(lev.G.XAdj[end] - lev.G.XAdj[begin])
		sub.Charge(float64(stepsPerLevel) * (3*myEdges + 2*myVerts))
		for round := 0; round < rounds*stepsPerLevel; round++ {
			// One negotiation round: request + grant halo messages, an
			// irregular counts exchange, and the convergence reduction.
			sub.ChargeComm(8, int(boundary[li][r])*12)
			sub.SyncCost(negotiationCost(&m, sub.Size()))
			mpi.AllReduce(sub, int64(0), 8, mpi.SumInt64)
		}
		// Contraction exchange: each rank ships its share of matched
		// coarse edges plus the boundary halo (the coarse graph stays
		// distributed; only per-rank shares move).
		next := &h.Levels[li+1]
		perRank := 8 * 2 * next.G.NumEdges() / sub.Size()
		sub.SyncCost(contractionCost(&m, sub.Size(), perRank+int(boundary[li][r])*8))
	}
}

// negotiationCost is the irregular counts exchange of one negotiation
// round over p ranks: Latency·⌈log2 p⌉ + (PerByte·4 + PerPeer)·p. It
// is AllToAllV's count exchange summed in another order, and its total
// differs from that one's in the last bit at some p, so it keeps its
// own composition.
func negotiationCost(m *mpi.Model, p int) mpi.Cost {
	return mpi.Flat(m.Latency*mpi.Log2Ceil(p), 0, 0).Plus(mpi.Flat(0, m.PerByte*4, m.PerPeer).Times(float64(p)))
}

// contractionCost is the contraction exchange of bytes per rank over p
// ranks: Latency·⌈log2 p⌉ + PerByte·bytes.
func contractionCost(m *mpi.Model, p, bytes int) mpi.Cost {
	return mpi.Flat(m.Latency*mpi.Log2Ceil(p), m.PerByte*float64(bytes), 0)
}
