// Package baseline implements the two multilevel parallel partitioners
// the paper compares against, rebuilt inside the same simulated runtime
// so the comparison is apples-to-apples:
//
//   - PM ("ParMetis-like"): heavy-edge-matching coarsening on all
//     ranks, greedy graph-growing initial bisection on the coarsest
//     graph, and a small number of distributed boundary-refinement
//     passes per uncoarsening level. Speed-biased.
//
//   - PTS ("Pt-Scotch-like"): the same multilevel skeleton with more
//     negotiation rounds, many more refinement passes, and a
//     sequential band-graph FM at every level (Pt-Scotch's banded
//     diffusion/FM stage), which buys cut quality at the price of
//     gathered communication and a sequential bottleneck — exactly the
//     behaviour envelope the paper reports.
//
// Like ScalaPart's driver, partitions come from the real parallel
// algorithm; execution times come from the runtime's virtual clocks.
package baseline

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/coarsen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/refine"
)

// Config selects a baseline variant.
type Config struct {
	Name              string
	InitSeeds         int     // greedy-growing attempts at the coarsest level
	InitFMPasses      int     // sequential FM passes on the coarsest bisection
	RefinePasses      int     // distributed boundary passes per level
	NegotiationRounds int     // matching negotiation rounds per coarsening step
	BandFM            bool    // sequential band FM per level (Pt-Scotch)
	BandHops          int     // band radius in hops, default 2
	FoldDup           bool    // charge Pt-Scotch's fold-with-duplication gathers
	CoarsestSize      int     // default 800
	BalanceTol        float64 // default 0.05
	Seed              int64
	Model             mpi.Model
}

// ParMetisLike returns the speed-biased configuration.
func ParMetisLike(seed int64) Config {
	return Config{
		// RefinePasses follows ParMetis's default NITER-style refinement
		// (several alternating passes per level).
		Name: "ParMetis", InitSeeds: 4, InitFMPasses: 2,
		RefinePasses: 6, NegotiationRounds: 4, Seed: seed,
	}
}

// PtScotchLike returns the quality-biased configuration.
func PtScotchLike(seed int64) Config {
	return Config{
		Name: "Pt-Scotch", InitSeeds: 16, InitFMPasses: 6,
		RefinePasses: 8, NegotiationRounds: 6,
		BandFM: true, BandHops: 2, FoldDup: true, Seed: seed,
	}
}

func (c Config) withDefaults() Config {
	if c.CoarsestSize == 0 {
		c.CoarsestSize = 800
	}
	if c.BalanceTol == 0 {
		c.BalanceTol = 0.05
	}
	if c.BandHops == 0 {
		c.BandHops = 2
	}
	if c.Model == (mpi.Model{}) {
		c.Model = mpi.DefaultModel()
	}
	return c
}

// Result is the outcome of a baseline run.
type Result struct {
	Part      []int32
	Cut       int64
	Imbalance float64
	P         int
	Total     float64 // modeled execution time (max over ranks)
	Comm      float64 // modeled communication time (max over ranks)
	Stats     []mpi.RankStats
}

// PartitionChecked bisects g on p simulated ranks with the configured
// multilevel baseline. A world size below one is an error, and a rank
// failure comes back as an *mpi.RankError instead of crashing the
// caller.
func PartitionChecked(g *graph.Graph, p int, cfg Config) (*Result, error) {
	if p < 1 {
		return nil, fmt.Errorf("baseline: world size p=%d, want at least 1", p)
	}
	// The baseline is the legacy reference implementation and walks raw
	// Adjncy throughout; a compressed input is decoded once up front
	// (Plain is the identity on plain graphs).
	g = g.Plain()
	cfg = cfg.withDefaults()
	h := coarsen.BuildHierarchy(g, p, coarsen.Options{
		CoarsestSize:  cfg.CoarsestSize,
		StepsPerLevel: 1,
		RankDecay:     1, // every rank stays active at every level
		Seed:          cfg.Seed,
	})
	boundary := coarsen.BoundaryEdges(h)
	// One shared side array per level; ranks write only their owned
	// block, with collectives ordering reads and writes.
	sides := make([][]int8, len(h.Levels))
	for li, lev := range h.Levels {
		sides[li] = make([]int8, lev.G.NumVertices())
	}
	totalW := g.TotalVertexWeight()
	stats, err := mpi.RunChecked(p, cfg.Model, func(c *mpi.Comm) {
		c.SetPhase("coarsen")
		coarsen.ChargeCosts(c, h, boundary, cfg.NegotiationRounds, 1)
		last := len(h.Levels) - 1
		c.SetPhase("initial-bisect")
		initialBisect(c, h.Levels[last].G, sides[last], cfg)
		c.SetPhase("refine")
		for li := last; li >= 0; li-- {
			lev := &h.Levels[li]
			if li != last {
				project(c, &h.Levels[li+1], lev, sides[li+1], sides[li])
			}
			refineLevel(c, lev, sides[li], totalW, cfg, boundary[li])
		}
	})
	if err != nil {
		return nil, err
	}
	part := make([]int32, g.NumVertices())
	for v, s := range sides[0] {
		part[v] = int32(s)
	}
	return &Result{
		Part:      part,
		Cut:       graph.CutSize(g, part),
		Imbalance: graph.Imbalance(g, part, 2),
		P:         p,
		Total:     mpi.MaxTime(stats),
		Comm:      mpi.MaxCommTime(stats),
		Stats:     stats,
	}, nil
}

// initialBisect computes the coarsest bisection on rank 0 (greedy graph
// growing, best of InitSeeds, polished with sequential FM) and
// broadcasts it. side is the shared array for the coarsest level.
func initialBisect(c *mpi.Comm, cg *graph.Graph, side []int8, cfg Config) {
	n := cg.NumVertices()
	if c.Rank() == 0 {
		rng := rand.New(rand.NewSource(cfg.Seed + 99))
		bestCut := int64(-1)
		var best []int8
		for try := 0; try < cfg.InitSeeds; try++ {
			cand := greedyGrow(cg, rng)
			cut := cutOf(cg, cand)
			if bestCut < 0 || cut < bestCut {
				bestCut, best = cut, cand
			}
			c.Charge(float64(cg.NumEdges()) * 2)
		}
		copy(side, best)
		// Sequential FM polish over the whole (small) coarsest graph.
		free := make([]int32, n)
		for i := range free {
			free[i] = int32(i)
		}
		var sideW [2]int64
		for v := 0; v < n; v++ {
			sideW[side[v]] += int64(cg.VertexWeight(int32(v)))
		}
		prob, _ := refine.BuildSubproblem(cg, free, func(id int32) int8 { return side[id] },
			sideW, sideW[0]+sideW[1], cfg.BalanceTol, cfg.InitFMPasses)
		prob.Run()
		copy(side, prob.Side)
		c.Charge(float64(cg.NumEdges()) * float64(cfg.InitFMPasses) * 4)
	}
	// The broadcast orders rank 0's writes before everyone's reads.
	c.Bcast(0, nil, n)
}

// project carries the coarse sides down one level: each rank fills its
// owned block of the fine array from the shared coarse array.
func project(c *mpi.Comm, coarse, fine *coarsen.Level, coarseSide, fineSide []int8) {
	r := c.Rank()
	begin, end := fine.Offsets[r], fine.Offsets[r+1]
	for v := begin; v < end; v++ {
		fineSide[v] = coarseSide[fine.ToCoarse[v]]
	}
	c.Charge(float64(end - begin))
	// Projection needs the coarse sides of ghost parents: an irregular
	// exchange plus halo traffic.
	c.ChargeComm(4, int(end-begin))
	c.SyncCost(c.Model().PerPeer * float64(c.Size()))
	c.Barrier() // writes complete before the next phase reads
}

// refineLevel runs the distributed boundary refinement passes and,
// for Pt-Scotch, the per-level sequential band FM.
func refineLevel(c *mpi.Comm, lev *coarsen.Level, side []int8, totalW int64, cfg Config, halo []int64) {
	g := lev.G
	r := c.Rank()
	begin, end := lev.Offsets[r], lev.Offsets[r+1]
	// Global side weights.
	var local [2]int64
	for v := begin; v < end; v++ {
		local[side[v]] += int64(g.VertexWeight(v))
	}
	global := mpi.AllReduceSlice(c, local[:], 8, mpi.SumInt64)
	sideW := [2]int64{global[0], global[1]}
	tolW := int64(cfg.BalanceTol * float64(totalW) / 2)

	for pass := 0; pass < cfg.RefinePasses; pass++ {
		dir := int8(pass % 2)
		// Budget: weight we may move off side dir without violating
		// balance, shared equally across ranks.
		budget := sideW[dir] - totalW/2 + tolW
		if budget < 0 {
			budget = 0
		}
		perRank := budget / int64(c.Size())
		type move struct {
			v    int32
			gain int64
		}
		var cands []move
		for v := begin; v < end; v++ {
			if side[v] != dir {
				continue
			}
			var same, other int64
			for k := g.XAdj[v]; k < g.XAdj[v+1]; k++ {
				if side[g.Adjncy[k]] == dir {
					same += int64(g.ArcWeight(k))
				} else {
					other += int64(g.ArcWeight(k))
				}
			}
			if other == 0 {
				continue // interior vertex
			}
			if gain := other - same; gain > 0 {
				cands = append(cands, move{v, gain})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].gain != cands[j].gain {
				return cands[i].gain > cands[j].gain
			}
			return cands[i].v < cands[j].v
		})
		var moved []int32
		var movedW int64
		for _, m := range cands {
			w := int64(g.VertexWeight(m.v))
			if movedW+w > perRank {
				break
			}
			movedW += w
			moved = append(moved, m.v)
		}
		c.Charge(float64(g.XAdj[end]-g.XAdj[begin]) + float64(len(cands)))
		// Ghost side refresh: an irregular vector exchange across the
		// boundary-sharing peers.
		c.ChargeComm(4, int(halo[r]))
		m := c.Model()
		c.SyncCost(m.PerPeer * float64(c.Size()))
		// Balance sub-phase: every pass agrees on the remaining budget
		// before committing moves.
		mpi.AllReduce(c, int64(0), 8, mpi.SumInt64)
		// Exchange moves (the collective also orders the writes below
		// against this pass's reads). Everyone observes the same weight
		// shift, summed once.
		shift := mpi.AllGatherVWith(c, moved, 4, func(parts [][]int32) int64 {
			var w int64
			for _, part := range parts {
				for _, v := range part {
					w += int64(g.VertexWeight(v))
				}
			}
			return w
		})
		for _, v := range moved {
			side[v] = 1 - dir
		}
		sideW[dir] -= shift
		sideW[1-dir] += shift
		c.Barrier() // writes visible before the next pass reads
	}

	if cfg.FoldDup {
		// Pt-Scotch's fold-with-duplication: the level's graph data is
		// folded onto process subsets over log P stages, each a gather
		// of this level's (shrinking) subgraph.
		m := c.Model()
		stages := log2f(c.Size())
		c.SyncCost(m.Latency*stages*stages + m.PerByte*6*float64(g.NumVertices())*stages/2)
	}
	if cfg.BandFM {
		bandFM(c, lev, side, sideW, totalW, cfg)
	}
}

// log2f is ceil(log2 n) as a float with log2f(1) = 0.
func log2f(n int) float64 {
	l := 0.0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

// bandFM gathers the band around the current cut to rank 0, refines it
// sequentially with FM (Pt-Scotch's band graph stage), and publishes
// the result.
func bandFM(c *mpi.Comm, lev *coarsen.Level, side []int8, sideW [2]int64, totalW int64, cfg Config) {
	g := lev.G
	r := c.Rank()
	begin, end := lev.Offsets[r], lev.Offsets[r+1]
	// Local band: owned vertices within BandHops of a cut edge.
	inBand := make(map[int32]struct{})
	var frontier []int32
	for v := begin; v < end; v++ {
		for k := g.XAdj[v]; k < g.XAdj[v+1]; k++ {
			if side[g.Adjncy[k]] != side[v] {
				inBand[v] = struct{}{}
				frontier = append(frontier, v)
				break
			}
		}
	}
	for hop := 1; hop < cfg.BandHops; hop++ {
		var next []int32
		for _, v := range frontier {
			for _, nb := range g.Neighbors(v) {
				if nb < begin || nb >= end {
					continue // other ranks contribute their own halo
				}
				if _, ok := inBand[nb]; !ok {
					inBand[nb] = struct{}{}
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	band := make([]int32, 0, len(inBand))
	for v := range inBand {
		band = append(band, v)
	}
	sort.Slice(band, func(i, j int) bool { return band[i] < band[j] })
	c.Charge(float64(g.XAdj[end]-g.XAdj[begin]) * float64(cfg.BandHops))
	all := mpi.AllGatherVWith(c, band, 4, mpi.Concat[int32])
	if len(all) == 0 {
		return
	}
	// Rank 0 refines sequentially; the band is globally known after the
	// gather, and the shared side array provides the ring sides.
	var moves []int32
	if c.Rank() == 0 {
		prob, ids := refine.BuildSubproblem(g, all, func(id int32) int8 { return side[id] },
			sideW, totalW, cfg.BalanceTol, 4)
		before := append([]int8(nil), prob.Side...)
		prob.Run()
		c.Charge(float64(len(all)) * 24)
		for i, id := range ids {
			if prob.Side[i] != before[i] {
				moves = append(moves, id)
			}
		}
	}
	// The payload size is modeled from the band size (identical on all
	// ranks) so the collective's cost is symmetric.
	res := c.Bcast(0, moves, 4+len(all))
	moves, _ = res.([]int32)
	// Each rank applies the flips in its own block.
	for _, v := range moves {
		if v >= begin && v < end {
			side[v] = 1 - side[v]
		}
	}
	c.Barrier()
}

// greedyGrow produces a bisection by BFS-growing part 0 from a random
// seed until it holds half the vertex weight.
func greedyGrow(g *graph.Graph, rng *rand.Rand) []int8 {
	n := g.NumVertices()
	side := make([]int8, n)
	for i := range side {
		side[i] = 1
	}
	target := g.TotalVertexWeight() / 2
	var grown int64
	visited := make([]bool, n)
	seed := int32(rng.Intn(n))
	queue := []int32{seed}
	visited[seed] = true
	for len(queue) > 0 && grown < target {
		v := queue[0]
		queue = queue[1:]
		side[v] = 0
		grown += int64(g.VertexWeight(v))
		for _, nb := range g.Neighbors(v) {
			if !visited[nb] {
				visited[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	// Disconnected leftovers: if growth stalled short of the target,
	// keep seeding.
	for grown < target {
		found := int32(-1)
		for v := int32(0); v < int32(n); v++ {
			if !visited[v] {
				found = v
				break
			}
		}
		if found < 0 {
			break
		}
		visited[found] = true
		queue = append(queue[:0], found)
		for len(queue) > 0 && grown < target {
			v := queue[0]
			queue = queue[1:]
			side[v] = 0
			grown += int64(g.VertexWeight(v))
			for _, nb := range g.Neighbors(v) {
				if !visited[nb] {
					visited[nb] = true
					queue = append(queue, nb)
				}
			}
		}
	}
	return side
}

func cutOf(g *graph.Graph, side []int8) int64 {
	var cut int64
	for u := int32(0); u < int32(g.NumVertices()); u++ {
		for k := g.XAdj[u]; k < g.XAdj[u+1]; k++ {
			v := g.Adjncy[k]
			if u < v && side[u] != side[v] {
				cut += int64(g.ArcWeight(k))
			}
		}
	}
	return cut
}
