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
	inStrip := func(val float64) bool { return math.Abs(val-tVal) < eps }
	// ringTouchesStrip reports whether owned vertex i has a resolvable
	// neighbour inside the strip.
	nOwn := len(d.OwnedIDs)
	start, slot, _ := d.Adjacency(g)
	ringTouchesStrip := func(i int) bool {
		for a := start[i]; a < start[i+1]; a++ {
			s := slot[a]
			if s < 0 {
				continue
			}
			var v float64
			if int(s) < nOwn {
				v = valOwned[s]
			} else {
				v = valGhost[int(s)-nOwn]
			}
			if inStrip(v) {
				return true
			}
		}
		return false
	}
	// Collect local strip and ring records.
	var recs []refine.SideRecord
	for i, id := range d.OwnedIDs {
		if inStrip(valOwned[i]) {
			recs = append(recs, refine.SideRecord{ID: id, Side: int8(side[i]), Free: true})
			continue
		}
		if ringTouchesStrip(i) {
			recs = append(recs, refine.SideRecord{ID: id, Side: int8(side[i])})
		}
	}
	all := mpi.AllGatherVWith(c, recs, refine.SideRecordBytes, mpi.Concat[refine.SideRecord])
	out := solveRound(c, g, d, all, side, res.SideW, totalW)
	res.Cut -= out.Gain
	res.SideW = out.SideW
	res.Imbalance = imbalance2(res.SideW[0], res.SideW[1])
	res.StripSize = out.Free
}
