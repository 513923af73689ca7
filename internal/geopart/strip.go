package geopart

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/embed"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/refine"
)

// stripRecord is one gathered vertex around the separator: its id,
// current side, and whether it is free to move (inside the strip) or a
// locked ring vertex.
type stripRecord struct {
	ID    int32
	Side  int8
	Strip bool
}

// refineStrip applies Fiduccia–Mattheyses to the coordinate strip
// around the chosen separating circle (Figure 2 of the paper): vertices
// whose separator value lies within eps of the threshold are free, and
// the ring of their outside neighbours is locked. eps comes from
// stripWidth, derived once inside the candidate reduction; eps <= 0
// means there is no strip to refine.
// Strip and ring records are gathered, concatenated and sorted by id
// once per collective; rank 0 solves the (small) FM problem on them and
// broadcasts the flips. The ring scan reads the view's resolved
// adjacency, so it is pure array indexing.
//
// The returned slice is the broadcast flip list (global vertex ids),
// identical on every rank; the full-cut pass uses it to bring its
// ghost side replicas up to date before extracting the boundary.
func refineStrip(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, cfg ParallelConfig, valOwned, valGhost []float64, eps, tVal float64, totalW int64, res *ParallelResult) []int32 {
	c.SetPhase("refine")
	if eps <= 0 {
		return nil
	}
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	inStrip := func(val float64) bool { return abs(val-tVal) < eps }
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
	var recs []stripRecord
	for i, id := range d.OwnedIDs {
		if inStrip(valOwned[i]) {
			recs = append(recs, stripRecord{ID: id, Side: int8(res.Side[i]), Strip: true})
			continue
		}
		if ringTouchesStrip(i) {
			recs = append(recs, stripRecord{ID: id, Side: int8(res.Side[i])})
		}
	}
	all := mpi.AllGatherVWith(c, recs, 6, sortedRecords)
	// Rank 0 solves the (small) strip FM problem and broadcasts the
	// flipped vertices plus the bookkeeping updates.
	type outcome struct {
		Flips     []int32
		Gain      int64
		SideW     [2]int64
		StripSize int
	}
	var out outcome
	if c.Rank() == 0 {
		var free []int32
		for _, rec := range all {
			if rec.Strip {
				free = append(free, rec.ID)
			}
		}
		out.SideW = res.SideW
		out.StripSize = len(free)
		if len(free) > 0 {
			// all is sorted by id and each vertex appears once (its owner
			// gathered it), so a side lookup is a binary search.
			prob, ids := refine.BuildSubproblem(g, free, func(id int32) int8 {
				k, ok := slices.BinarySearchFunc(all, id, func(r stripRecord, id int32) int {
					return cmp.Compare(r.ID, id)
				})
				if !ok {
					panic("geopart: strip neighbour missing from gathered ring")
				}
				return all[k].Side
			}, res.SideW, totalW, cfg.BalanceTol, cfg.FMPasses)
			before := append([]int8(nil), prob.Side...)
			out.Gain = prob.Run()
			c.Charge(float64(len(free)) * 20)
			for i, id := range ids {
				if prob.Side[i] != before[i] {
					out.Flips = append(out.Flips, id)
				}
			}
			out.SideW = prob.SideW
		}
	}
	// Modeled payload from the gathered record count, identical on all
	// ranks, so the broadcast cost is symmetric.
	got := c.Bcast(0, out, 32+len(all))
	out = got.(outcome)
	for _, id := range out.Flips {
		if li, ok := d.LocalSlot(id); ok {
			res.Side[li] = 1 - res.Side[li]
		}
	}
	res.Cut -= out.Gain
	res.SideW = out.SideW
	res.Imbalance = imbalance2(res.SideW[0], res.SideW[1])
	res.StripSize = out.StripSize
	return out.Flips
}

// sortedRecords concatenates the gathered strip records and sorts them
// by vertex id, once per collective; the result is shared read-only.
func sortedRecords(parts [][]stripRecord) []stripRecord {
	all := mpi.Concat(parts)
	sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
	return all
}
