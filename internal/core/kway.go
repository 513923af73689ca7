package core

import (
	"fmt"

	"repro/internal/graph"
)

// KWayResult is the outcome of a recursive k-way partition.
type KWayResult struct {
	Part      []int32 // part id in [0, K) per vertex
	K         int
	EdgeCut   int64
	Imbalance float64
	// Time is the modeled critical-path time: at each recursion level
	// the sub-partitions run concurrently on disjoint rank subsets, so
	// the level cost is the maximum over siblings and the total is the
	// sum over levels.
	Time float64
}

// PartitionKWay splits g into k parts (k a power of two) by recursive
// bisection with ScalaPart, the way a k-way distribution for k
// processors is produced in practice. Each bisection runs on a
// proportional share of the p simulated ranks; sibling sub-problems at
// the same recursion depth are independent, so the modeled time charges
// the per-level maximum. A k that is not a power of two, or a failed
// bisection (see PartitionChecked), returns an error.
func PartitionKWay(g *graph.Graph, k, p int, opt Options) (*KWayResult, error) {
	if k < 1 || k&(k-1) != 0 {
		return nil, fmt.Errorf("core: PartitionKWay k=%d must be a power of two", k)
	}
	n := g.NumVertices()
	part := make([]int32, n)
	res := &KWayResult{Part: part, K: k}
	if k == 1 {
		return res, nil
	}
	type job struct {
		vertices []int32 // nil means "all of g"
		base     int32
		parts    int
		ranks    int
	}
	jobs := []job{{vertices: nil, base: 0, parts: k, ranks: p}}
	level := 0
	for len(jobs) > 0 {
		var next []job
		levelTime := 0.0
		for _, j := range jobs {
			sub, back := subgraphOf(g, j.vertices)
			ranks := j.ranks
			if ranks < 1 {
				ranks = 1
			}
			sopt := opt
			sopt.Seed = opt.Seed + int64(level)*131 + int64(j.base)
			sopt.Coarsen.Seed = sopt.Seed
			sopt.Embed.Seed = sopt.Seed
			r, err := PartitionChecked(sub, ranks, sopt)
			if err != nil {
				return nil, fmt.Errorf("core: PartitionKWay bisection of parts [%d, %d): %w", j.base, int(j.base)+j.parts, err)
			}
			if r.Times.Total > levelTime {
				levelTime = r.Times.Total
			}
			var lo, hi []int32
			for v, side := range r.Part {
				gid := int32(v)
				if back != nil {
					gid = back[v]
				}
				if side == 0 {
					part[gid] = j.base
					lo = append(lo, gid)
				} else {
					part[gid] = j.base + int32(j.parts/2)
					hi = append(hi, gid)
				}
			}
			if j.parts > 2 {
				next = append(next,
					job{vertices: lo, base: j.base, parts: j.parts / 2, ranks: ranks / 2},
					job{vertices: hi, base: j.base + int32(j.parts/2), parts: j.parts / 2, ranks: ranks - ranks/2},
				)
			}
		}
		res.Time += levelTime
		jobs = next
		level++
	}
	res.EdgeCut = graph.CutSize(g, part)
	res.Imbalance = graph.Imbalance(g, part, k)
	return res, nil
}

// subgraphOf extracts the induced subgraph, or returns g itself for the
// full vertex set.
func subgraphOf(g *graph.Graph, vertices []int32) (*graph.Graph, []int32) {
	if vertices == nil {
		return g, nil
	}
	return graph.InducedSubgraph(g, vertices)
}
