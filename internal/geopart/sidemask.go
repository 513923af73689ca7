package geopart

import (
	"math/bits"

	"repro/internal/embed"
	"repro/internal/geometry"
	"repro/internal/graph"
)

// Candidate evaluation on side masks. Every owned or ghost slot of a
// view gets words = ⌈ncand/64⌉ uint64s whose bit k is the slot's side
// under candidate k; slots are numbered as in embed.Distributed.
// Adjacency (owned i is slot i, ghost g is slot nOwn+g). One pass over
// the view's resolved adjacency then counts the cut of every candidate
// at once. Beyond the view itself, evaluation holds one word per slot
// per 64 candidates: no per-candidate values and no copy of the edges.

// maskWords is the number of mask words per slot for ncand candidates.
func maskWords(ncand int) int { return (ncand + 63) / 64 }

// sideMasks lifts every owned and ghost vertex of d to the sphere once
// and evaluates every candidate of cs on it while the point is hot. It
// returns the side masks (words per slot), each candidate's summed
// upper-side weight over the owned vertices, and the owned total
// weight; the lower side is the total minus the upper side.
func sideMasks(g *graph.Graph, d *embed.Distributed, cs *candSet, norm func(geometry.Vec2) geometry.Vec2) (masks []uint64, words int, upW []int64, ownW int64) {
	nOwn, nGhost := len(d.OwnedIDs), len(d.GhostIDs)
	ncand := len(cs.dirs)
	words = maskWords(ncand)
	masks = make([]uint64, (nOwn+nGhost)*words)
	upW = make([]int64, ncand)
	row := make([]float64, ncand)
	lift := func(slot int, id int32, p geometry.Vec2) []uint64 {
		p3 := geometry.StereoUp(norm(p))
		for m := range cs.ms {
			lo, hi := cs.mobStart[m], cs.mobStart[m+1]
			cs.ms[m].ApplyDots(p3, cs.dirs[lo:hi], row[lo:hi])
		}
		mask := masks[slot*words : (slot+1)*words]
		for k, v := range row {
			if valueAbove(v, id, cs.tVal[k], cs.tID[k]) {
				mask[k>>6] |= 1 << (uint(k) & 63)
			}
		}
		return mask
	}
	for i, id := range d.OwnedIDs {
		mask := lift(i, id, d.OwnedPos[i])
		w := int64(g.VertexWeight(id))
		ownW += w
		for j, x := range mask {
			for ; x != 0; x &= x - 1 {
				upW[j*64+bits.TrailingZeros64(x)] += w
			}
		}
	}
	for gi, id := range d.GhostIDs {
		lift(nOwn+gi, id, d.GhostPos[gi])
	}
	return masks, words, upW, ownW
}

// addCuts walks d's resolved adjacency once and adds, for every edge
// whose endpoints' sides differ under candidate k, its arc weight to
// cuts[k]. masks holds words per slot, as sideMasks builds them. Most
// edges are cut by no candidate, so most iterations end at an all-zero
// XOR; one mask word, the common case, takes a loop of its own.
func addCuts(g *graph.Graph, d *embed.Distributed, masks []uint64, words int, cuts []int64) {
	start, slot, wgt := d.Adjacency(g)
	arcW := func(a int32) int64 {
		if wgt == nil {
			return 1
		}
		return int64(wgt[a])
	}
	if words == 1 {
		for i, id := range d.OwnedIDs {
			mi := masks[i]
			for a := start[i]; a < start[i+1]; a++ {
				s := slot[a]
				if s < 0 {
					continue
				}
				x := mi ^ masks[s]
				if x == 0 || !countsOnce(d, i, id, s) {
					continue
				}
				w := arcW(a)
				for ; x != 0; x &= x - 1 {
					cuts[bits.TrailingZeros64(x)] += w
				}
			}
		}
		return
	}
	for i, id := range d.OwnedIDs {
		mi := masks[i*words : (i+1)*words]
		for a := start[i]; a < start[i+1]; a++ {
			s := slot[a]
			if s < 0 || !countsOnce(d, i, id, s) {
				continue
			}
			w := arcW(a)
			ms := masks[int(s)*words : (int(s)+1)*words]
			for j, m := range mi {
				for x := m ^ ms[j]; x != 0; x &= x - 1 {
					cuts[j*64+bits.TrailingZeros64(x)] += w
				}
			}
		}
	}
}

// countsOnce reports whether the edge from owned vertex i (id) to the
// resolved slot s is counted from i: each edge counts once, from its
// smaller-id endpoint. An owned neighbour is larger when its slot is
// (OwnedIDs ascend), a ghost neighbour when its id is.
func countsOnce(d *embed.Distributed, i int, id, s int32) bool {
	nOwn := int32(len(d.OwnedIDs))
	if s < nOwn {
		return s > int32(i)
	}
	return d.GhostIDs[s-nOwn] > id
}

// maskBit reports slot's side under candidate k.
func maskBit(masks []uint64, words, slot, k int) bool {
	return masks[slot*words+k>>6]>>(uint(k)&63)&1 == 1
}

// separatorValues maps each point onto candidate k's separator:
// m.Apply(StereoUp(norm(p))).Dot(u), the arithmetic ApplyDots performs
// during evaluation, so the values and the mask bits agree.
func separatorValues(cs *candSet, k int, norm func(geometry.Vec2) geometry.Vec2, pos []geometry.Vec2) []float64 {
	m, u := cs.ms[cs.mobOf[k]], cs.dirs[k]
	out := make([]float64, len(pos))
	for i, p := range pos {
		out[i] = m.Apply(geometry.StereoUp(norm(p))).Dot(u)
	}
	return out
}
