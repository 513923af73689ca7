// Package coarsen implements ParMetis-style multilevel graph
// coarsening: randomized heavy-edge matching, graph contraction with
// weight accumulation, and hierarchy construction. Matching can be
// restricted to contiguous ownership blocks, which reproduces the
// behaviour of distributed matching where each processor matches only
// vertices it owns (cross-processor edges are never contracted) — the
// hierarchy therefore genuinely depends on the processor count, as the
// paper's cut-size-vs-P ranges require.
//
// Following Section 3 of the paper, BuildHierarchy retains only every
// other coarsening step, so consecutive retained levels shrink by
// roughly one quarter while the active processor count drops by the
// same factor.
package coarsen

import (
	"math/rand"

	"repro/internal/graph"
	"repro/internal/hostpar"
)

// HeavyEdgeMatch computes a randomized heavy-edge matching. Vertices
// are visited in random order; an unmatched vertex matches its
// unmatched neighbour with the heaviest connecting edge among those
// allowed. The returned slice maps every vertex to its partner (itself
// when unmatched). allowed may be nil to permit every edge.
func HeavyEdgeMatch(g *graph.Graph, rng *rand.Rand, allowed func(u, v int32) bool) []int32 {
	n := g.NumVertices()
	match := make([]int32, n)
	for i := range match {
		match[i] = int32(i)
	}
	cur := graph.GetCursor(g)
	defer cur.Release()
	order := rng.Perm(n)
	for _, ui := range order {
		u := int32(ui)
		if match[u] != u {
			continue
		}
		var best int32 = -1
		var bestW int32 = -1
		nbrs, wgts := cur.Arcs(u)
		for k, v := range nbrs {
			if match[v] != v || v == u {
				continue
			}
			if allowed != nil && !allowed(u, v) {
				continue
			}
			if w := wgts[k]; w > bestW {
				bestW, best = w, v
			}
		}
		if best >= 0 {
			match[u] = best
			match[best] = u
		}
	}
	return match
}

// Level is one retained level of a hierarchy.
type Level struct {
	G *graph.Graph
	// Ranks is the number of processors active at this level.
	Ranks int
	// Offsets[r] is the first vertex owned by rank r (len Ranks+1);
	// ownership is contiguous by construction.
	Offsets []int32
	// ToCoarse maps this level's vertices to the next retained level's
	// vertices; nil at the coarsest level.
	ToCoarse []int32
	// ChildOffsets/Children index ToCoarse in reverse: the vertices of
	// this level grouped by coarse parent, in CSR form. Built alongside
	// ToCoarse; nil at the coarsest level.
	ChildOffsets []int32
	Children     []int32
}

// ChildrenOf returns this level's vertices whose coarse parent (at the
// next retained level) is coarse.
func (l *Level) ChildrenOf(coarse int32) []int32 {
	return l.Children[l.ChildOffsets[coarse]:l.ChildOffsets[coarse+1]]
}

// Options configures hierarchy construction.
type Options struct {
	// CoarsestSize stops coarsening once a level has at most this many
	// vertices. Default 800.
	CoarsestSize int
	// StepsPerLevel is how many matching+contraction steps are fused
	// into one retained level: 2 reproduces the paper's "retain every
	// other graph" quartering; 1 keeps every halving step (used by the
	// level-retention ablation). Default 2.
	StepsPerLevel int
	// RankDecay divides the active rank count at each retained level.
	// Default 1<<StepsPerLevel (the paper's P/4 per quartering level);
	// baselines that keep every rank active at every level use 1.
	RankDecay int
	// VertsPerRank caps the active rank count of every level at
	// n/VertsPerRank (floored at one rank): when the graph is small
	// relative to P, work is folded onto fewer ranks rather than spread
	// so thin that blocked matching and the lattice embedding
	// degenerate. 0 disables the cap.
	VertsPerRank int
	// Seed drives the randomized matching.
	Seed int64
}

// capRanks applies the VertsPerRank cap and the floor of one rank; the
// result never exceeds the available rank count.
func (o Options) capRanks(ranks, n, available int) int {
	if o.VertsPerRank > 0 && ranks > n/o.VertsPerRank {
		ranks = n / o.VertsPerRank
	}
	if ranks > available {
		ranks = available
	}
	if ranks < 1 {
		ranks = 1
	}
	return ranks
}

func (o Options) withDefaults() Options {
	if o.CoarsestSize == 0 {
		o.CoarsestSize = 800
	}
	if o.StepsPerLevel == 0 {
		o.StepsPerLevel = 2
	}
	return o
}

// Hierarchy is the sequence of retained levels; Levels[0] is the
// original graph on the full processor count.
type Hierarchy struct {
	Levels []Level
}

// BuildHierarchy coarsens g over p processors. Matching at every step
// is restricted to the contiguous ownership blocks of the level's
// active ranks, and the active rank count divides by
// 4 (for StepsPerLevel=2) at each retained level, floored at one rank.
// Coarsening stops when the coarsest target is reached or a level
// shrinks by less than 10%.
func BuildHierarchy(g *graph.Graph, p int, opt Options) *Hierarchy {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	cur := g
	curRanks := opt.capRanks(p, g.NumVertices(), p)
	offsets := blockOffsets(g.NumVertices(), curRanks)
	h := &Hierarchy{}
	h.Levels = append(h.Levels, Level{G: cur, Ranks: curRanks, Offsets: offsets})
	for cur.NumVertices() > opt.CoarsestSize {
		// One retained level: StepsPerLevel fused matching steps.
		stepG := cur
		stepOffsets := offsets
		var composed []int32
		for s := 0; s < opt.StepsPerLevel; s++ {
			// Matching is unrestricted: distributed HEM matches across
			// processor boundaries with a conflict-resolution protocol
			// whose rounds ChargeCosts accounts for. A matched pair
			// spanning two blocks is contracted into the block of its
			// first endpoint in block order.
			match := HeavyEdgeMatch(stepG, rng, nil)
			cg, f2c, perBlock := contractBlocked(stepG, match, stepOffsets)
			stepG = cg
			stepOffsets = prefixSum(perBlock)
			if composed == nil {
				composed = f2c
			} else {
				cc := composed
				hostpar.For(len(cc), composeGrain, func(i int) {
					cc[i] = f2c[cc[i]]
				})
			}
			if stepG.NumVertices() <= opt.CoarsestSize {
				break
			}
		}
		if float64(stepG.NumVertices()) > 0.95*float64(cur.NumVertices()) {
			break // matching has stalled (e.g. star graphs); stop
		}
		decay := opt.RankDecay
		if decay == 0 {
			decay = 1 << opt.StepsPerLevel
		}
		nextRanks := opt.capRanks(curRanks/decay, stepG.NumVertices(), curRanks)
		// Re-own the coarse level on the reduced rank set by merging
		// consecutive fine-rank blocks.
		nextOffsets := mergeOffsets(stepOffsets, nextRanks)
		fine := &h.Levels[len(h.Levels)-1]
		fine.ToCoarse = composed
		fine.ChildOffsets, fine.Children = invertMap(composed, stepG.NumVertices())
		h.Levels = append(h.Levels, Level{G: stepG, Ranks: nextRanks, Offsets: nextOffsets})
		cur = stepG
		curRanks = nextRanks
		offsets = nextOffsets
	}
	return h
}

// blockOffsets returns BlockRange boundaries as an offsets slice.
func blockOffsets(n, p int) []int32 {
	off := make([]int32, p+1)
	for r := 0; r < p; r++ {
		begin, _ := graph.BlockRange(n, p, r)
		off[r] = int32(begin)
	}
	off[p] = int32(n)
	return off
}

func prefixSum(counts []int32) []int32 {
	off := make([]int32, len(counts)+1)
	for i, c := range counts {
		off[i+1] = off[i] + c
	}
	return off
}

// mergeOffsets redistributes blocks from len(offsets)-1 ranks down to
// nextRanks by merging consecutive groups.
func mergeOffsets(offsets []int32, nextRanks int) []int32 {
	oldRanks := len(offsets) - 1
	if nextRanks >= oldRanks {
		return offsets
	}
	out := make([]int32, nextRanks+1)
	for r := 0; r <= nextRanks; r++ {
		// Rank r of the new set takes old blocks [r*g, (r+1)*g).
		idx := r * oldRanks / nextRanks
		out[r] = offsets[idx]
	}
	out[nextRanks] = offsets[oldRanks]
	return out
}
