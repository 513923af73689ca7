// Multi-trial evolutionary search: run the embed+partition tail of the
// pipeline several times with decorrelated RNG streams, keep the two
// best bisections, and combine them by freeing their disagreement
// region under one distributed FM round (geopart.RefineFreeSet). The
// coarse hierarchy is built once and shared — trials differ only in
// the embedding forces and the great-circle candidate draws, which is
// where the paper's pipeline is randomised.
//
// The staged driver (driver.go) runs the trials as a loop over its
// embed and partition stages inside ONE simulated world, so the modeled
// clock honestly pays for every trial: Trials=4 costs roughly 4× the
// embed+partition time of Trials=1 plus the combine collectives. This
// file holds the trial seeds, the scoring and the combine. The search
// is opt-in (Options.Trials > 1) and deterministic — trial seeds are
// derived arithmetically, scores are compared with a total order, and
// the combine operates on globally replicated outcomes — so results
// are bit-identical across worker counts, and a respawned world
// replays every trial exactly.
package core

import (
	"repro/internal/embed"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// trialSeedStride decorrelates per-trial RNG streams: trial ti adds
// ti·stride to the embedding seed and the great-circle seed. Both
// strides are primes far above any seed arithmetic the packages do
// internally (level offsets, rank offsets).
const (
	embedSeedStride = 1000003
	partSeedStride  = 7919
)

// trialScore is the globally replicated outcome of one trial, ordered
// by the deterministic better() relation below.
type trialScore struct {
	feasible bool // imbalance within the configured tolerance
	cut      int64
	imb      float64
	ti       int
}

// better is a total order on trial scores: feasibility first, then cut,
// then imbalance, then trial index. Every rank computes it from the
// same replicated values, so the winner is globally agreed without
// extra communication.
func (a trialScore) better(b trialScore) bool {
	if a.feasible != b.feasible {
		return a.feasible
	}
	if a.cut != b.cut {
		return a.cut < b.cut
	}
	if a.imb != b.imb {
		return a.imb < b.imb
	}
	return a.ti < b.ti
}

// trial is one rank's share of one embed+partition pass.
type trial struct {
	score trialScore
	d     *embed.Distributed
	res   *geopart.ParallelResult
}

// trialPair keeps the two best of the n trials offered so far.
type trialPair struct {
	first, second trial
	n             int
}

// offer scores trial ti's outcome and keeps it if it is among the two
// best.
func (tp *trialPair) offer(s *search, ti int, d *embed.Distributed, res *geopart.ParallelResult) {
	t := trial{score: trialScore{feasible: res.Imbalance <= s.tol, cut: res.Cut, imb: res.Imbalance, ti: ti}, d: d, res: res}
	switch {
	case tp.n == 0 || t.score.better(tp.first.score):
		tp.first, tp.second = t, tp.first
	case tp.n == 1 || t.score.better(tp.second.score):
		tp.second = t
	}
	tp.n++
}

// trialOpts are one trial's embedding and partition options.
type trialOpts struct {
	embed embed.ParallelOptions
	cfg   geopart.ParallelConfig
}

// search is the world-wide state of a run's trials: each trial's
// options and, with more than one trial, the balance tolerance and FM
// pass count the partitioner resolves, the total vertex weight, and the
// runner-up's sides by global id, which the combine exchanges. The
// embedding routes ownership by coordinates, so two trials partition
// the id space differently and rank-local side vectors do not align
// element-wise.
type search struct {
	opts     []trialOpts
	tol      float64
	passes   int
	totalW   int64
	runnerUp []int8
}

// newSearch derives the options of each of max(trials, 1) trials.
// Trial 0 runs the configured options verbatim, so the search result
// can only match or beat the single-trial pipeline; later trials shift
// both RNG streams.
func newSearch(g *graph.Graph, eopt embed.ParallelOptions, cfg geopart.ParallelConfig, trials int) *search {
	s := &search{opts: make([]trialOpts, max(trials, 1))}
	for ti := range s.opts {
		o := &s.opts[ti]
		o.embed, o.cfg = eopt, cfg
		o.embed.Seed += int64(ti) * embedSeedStride
		o.cfg.Seed += int64(ti) * partSeedStride
	}
	if trials > 1 {
		tuned := cfg.Defaults()
		s.tol, s.passes = tuned.BalanceTol, tuned.FMPasses
		s.totalW = g.TotalVertexWeight()
		s.runnerUp = make([]int8, g.NumVertices())
	}
	return s
}

// combine frees the disagreement region of the two best trials and lets
// one distributed FM round walk from the better parent toward (or past)
// the other, updating the better one in place and charging the phase to
// t's partition time. The FM pass keeps the best prefix of its moves, so
// the child is never worse than the best trial.
func (s *search) combine(c *mpi.Comm, g *graph.Graph, tp *trialPair, t *PhaseTimes) {
	c.SetPhase("combine")
	ph := c.StartPhase()
	best, second := &tp.first, &tp.second
	// Redistribute the runner-up's sides to the winner's owners: one
	// irregular record exchange (id + side per owned vertex), charged
	// like the baseline's ghost-side refreshes. The host-side transport
	// is the shared array plus a barrier; each rank writes its disjoint
	// owned slots.
	for i, id := range second.d.OwnedIDs {
		s.runnerUp[id] = int8(second.res.Side[i])
	}
	c.ChargeComm(4, 6*len(second.d.OwnedIDs))
	c.SyncCost(c.Model().PerPeer * float64(c.Size()))
	c.Barrier() // writes complete before cross-rank reads
	bestSide := best.res.Side
	nOwn := len(best.d.OwnedIDs)
	// Bisections are invariant under side relabeling: orient the second
	// parent to the first before diffing, or a mirrored twin would free
	// every vertex.
	var same, diff int64
	side2 := make([]int32, nOwn)
	for i, id := range best.d.OwnedIDs {
		side2[i] = int32(s.runnerUp[id])
		if bestSide[i] == side2[i] {
			same++
		} else {
			diff++
		}
	}
	c.Charge(float64(nOwn) * 2)
	agree := mpi.AllReduceSlice(c, []int64{same, diff}, 8, mpi.SumInt64)
	flipSecond := agree[1] > agree[0]
	freeMask := make([]bool, nOwn)
	for i, v := range side2 {
		if flipSecond {
			v = 1 - v
		}
		freeMask[i] = bestSide[i] != v
	}
	out := geopart.RefineFreeSet(c, g, best.d, freeMask, bestSide, best.res.SideW, s.totalW, s.tol, s.passes)
	best.score.cut -= out.Gain
	best.res.SideW = out.SideW
	best.score.imb = graph.Imbalance2(out.SideW[0], out.SideW[1])
	dt, dc := ph.Stop()
	t.Partition += dt
	t.PartitionComm += dc
}
