// Distributed FM rounds: the rank-0 half of every gather-solve-
// broadcast refinement. geopart's strip pass (the coordinate strip of
// Figure 2), its full-cut boundary pass (per "Engineering a Scalable
// High Quality Graph Partitioner", arXiv 0910.2004) and core's trial
// combine gather (id, side, free) records of their free vertices and
// the locked one-hop ring around them; rank 0 solves the FM subproblem
// here and the flips are broadcast back. The baselines' Pt-Scotch band
// FM and coarsest polish solve through the same Solve.
//
// The full-cut pass is opt-in through geopart.ParallelConfig.
// FullCutRounds (default 0, off): with it off, the pipeline is the
// strip-only refinement that the BENCH seed-row guards pin down.
package refine

import (
	"slices"

	"repro/internal/graph"
)

// SideRecord is one gathered vertex of a distributed free-set FM
// solve: its id, current side, and whether it is free to move or a
// locked ring vertex. The wire size is 6 bytes (id + side + flag).
type SideRecord struct {
	ID   int32
	Side int8
	Free bool
}

// SideRecordBytes is the modeled wire size of one SideRecord in the
// gather collectives.
const SideRecordBytes = 6

// FreeSetResult is the outcome of one solve, shaped for a
// single broadcast: the flipped vertex ids, the cut reduction, the
// updated global side weights, and the free-set size (for charge
// accounting and reporting).
type FreeSetResult struct {
	Flips []int32
	Gain  int64
	SideW [2]int64
	Free  int
}

// SolveFreeSet assembles and runs the FM subproblem over the gathered
// records: free records become movable vertices, the rest are the
// locked ring folded into terminal weights. The free vertices enter
// the subproblem in vertex-id order, so the heap's insertion order —
// and therefore every tie-break in the move sequence — is a
// deterministic function of the record set alone, independent of
// gather arrival order, rank count, or workers. recs is only read:
// geopart's rounds pass a slice every rank shares.
//
// An empty free set returns immediately with zero flips and no
// allocations: an empty strip, or a full-cut round whose boundary is
// empty, reaches this.
func SolveFreeSet(g *graph.Graph, recs []SideRecord, sideW [2]int64, totalW int64, tol float64, passes int) FreeSetResult {
	nfree := 0
	for _, r := range recs {
		if r.Free {
			nfree++
		}
	}
	if nfree == 0 {
		return FreeSetResult{SideW: sideW}
	}
	sideOfMap := make(map[int32]int8, len(recs))
	free := make([]int32, 0, nfree)
	for _, r := range recs {
		sideOfMap[r.ID] = r.Side
		if r.Free {
			free = append(free, r.ID)
		}
	}
	slices.Sort(free)
	return Solve(g, free, func(id int32) int8 {
		s, ok := sideOfMap[id]
		if !ok {
			panic("refine: free-set neighbour missing from gathered ring")
		}
		return s
	}, sideW, totalW, tol, passes)
}
