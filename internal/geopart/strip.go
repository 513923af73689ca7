package geopart

import (
	"math"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/refine"
)

// refineStrip applies Fiduccia–Mattheyses to the coordinate strip
// around the chosen separating circle (Figure 2 of the paper): vertices
// whose separator value lies within eps of the threshold are free, and
// the ring of their outside neighbours is locked. eps comes from
// stripWidth, derived once inside the candidate reduction; eps <= 0
// means there is no strip to refine.
// Strip and ring records are gathered and rank 0 solves the (small)
// FM problem on them through solveRound, the round every distributed
// FM pass shares. The ring scan reads the view's resolved adjacency, so
// it is pure array indexing.
//
// side is this rank's slot-indexed side replica (see solveRound): its
// owned prefix is res.Side, and the full-cut pass extends it over the
// ghost slots so that the strip flips land on the ghost copies too.
func refineStrip(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, valOwned, valGhost []float64, eps, tVal float64, totalW int64, side []int32, res *ParallelResult) {
	c.SetPhase("refine")
	if eps <= 0 {
		return
	}
	// Classify every owned and ghost slot once: the ring scan below
	// then reads one flag per arc instead of re-testing the value.
	nOwn := len(d.OwnedIDs)
	inStrip := make([]bool, nOwn+len(valGhost))
	for i, v := range valOwned {
		inStrip[i] = math.Abs(v-tVal) < eps
	}
	for k, v := range valGhost {
		inStrip[nOwn+k] = math.Abs(v-tVal) < eps
	}
	// Collect local strip records, and ring records for the owned
	// vertices with a resolvable neighbour inside the strip.
	start, slot, _ := d.Adjacency(g)
	var recs []refine.SideRecord
	for i, id := range d.OwnedIDs {
		free := inStrip[i]
		keep := free
		for a := start[i]; !keep && a < start[i+1]; a++ {
			keep = slot[a] >= 0 && inStrip[slot[a]]
		}
		if keep {
			recs = append(recs, refine.SideRecord{ID: id, Side: int8(side[i]), Free: free})
		}
	}
	all := mpi.AllGatherVWith(c, recs, refine.SideRecordBytes, mpi.Concat[refine.SideRecord])
	out := solveRound(c, g, d, all, side, res.SideW, totalW)
	res.Cut -= out.Gain
	res.SideW = out.SideW
	res.Imbalance = graph.Imbalance2(res.SideW[0], res.SideW[1])
	res.StripSize = out.Free
}
