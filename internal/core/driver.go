package core

import (
	"repro/internal/coarsen"
	"repro/internal/embed"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// The staged world driver. Every core entry point describes its run as
// a stagePlan value — which stages run, on what restored state, and
// with which partition kernel — and stagePlan.run is the one place a
// ScalaPart world is launched. The full pipeline is coarsen charge →
// embed → partition (with refinement inside the kernel); the
// repartitioning entry points and recovery resumes enter it part way.
// With one trial a fresh full plan charges exactly the historical cost
// sequence, so every recorded modeled number re-derives bit for bit.

// pipelineStage is where a world (re-)enters the pipeline.
type pipelineStage int

const (
	stageStart     pipelineStage = iota // full pipeline: coarsen, embed, partition
	stageEmbed                          // resume after coarsening
	stagePartition                      // partition given per-rank views only
)

func (s pipelineStage) String() string {
	switch s {
	case stageEmbed:
		return "coarsen-checkpoint"
	case stagePartition:
		return "embed-checkpoint"
	}
	return "start"
}

// partitionKernel bisects one rank's share of an embedded graph.
type partitionKernel func(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, cfg geopart.ParallelConfig) *geopart.ParallelResult

// rcbKernel is Zoltan-style parallel RCB as a partition kernel; it has
// no configuration.
func rcbKernel(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, _ geopart.ParallelConfig) *geopart.ParallelResult {
	return geopart.ParallelRCB(c, g, d)
}

// stagePlan is one world launch.
type stagePlan struct {
	p     int
	model mpi.Model
	start pipelineStage

	// The coarsen stage charges the build of h (stageStart only).
	h             *coarsen.Hierarchy
	boundary      [][]int64
	coarsenRounds int

	// The embed and partition stages run trials times with per-trial
	// seeds (trials ≤ 1 is one pass); more than one trial ends in a
	// combine of the two best. The partition stage runs kernel under the
	// phase name phase.
	embed  embed.ParallelOptions
	trials int
	cfg    geopart.ParallelConfig
	kernel partitionKernel
	phase  string

	// Restored state: per-rank counters and phase times to resume from
	// (nil means fresh clocks), and the per-rank embedding a
	// stagePartition world partitions.
	resume    []mpi.RankSnapshot
	baseTimes []PhaseTimes
	views     []*embed.Distributed

	save   *checkpoint // level checkpoints to fill (nil = none)
	rejoin bool        // charge a synchronising "recover" barrier on entry
}

// run launches the plan's world. The returned stats are valid even on
// error (partial clocks at teardown); the recovery driver needs their
// Events counters to disarm fired faults.
func (pl stagePlan) run(g *graph.Graph) (*Result, []mpi.RankStats, error) {
	p := pl.p
	part := make([]int32, g.NumVertices())
	times := make([]PhaseTimes, p)
	s := newSearch(g, pl.embed, pl.cfg, pl.trials)
	// Each rank's two best trials live here rather than in the rank
	// body's frame: every kernel call stacks on that frame, and a larger
	// one makes many rank goroutines outgrow their initial stack (on a
	// 2-vCPU host it raised the peak RSS of a P=1024 call by about 3 MB).
	pairs := make([]trialPair, p)
	stats, err := mpi.RunChecked(p, pl.model, func(c *mpi.Comm) {
		rank := c.Rank()
		t := &times[rank]
		if pl.resume != nil {
			c.Restore(pl.resume[rank])
			*t = pl.baseTimes[rank]
		}
		if pl.rejoin {
			// Recovery re-entry: one synchronising barrier models the
			// survivors and the respawned (or shrunken) world agreeing to
			// re-enter the pipeline, and aligns the restored clocks.
			c.SetPhase("recover")
			c.Barrier()
		}
		if pl.start == stageStart {
			c.SetPhase("coarsen")
			ph := c.StartPhase()
			coarsen.ChargeCosts(c, pl.h, pl.boundary, pl.coarsenRounds, 2)
			t.Coarsen, t.CoarsenComm = ph.Stop()
			if pl.save != nil {
				pl.save.saveCoarsen(c, t)
			}
		}

		best := &pairs[rank]
		for ti := range s.opts {
			o := &s.opts[ti]
			var d *embed.Distributed
			if pl.start == stagePartition {
				d = pl.views[rank]
			} else {
				c.SetPhase("embed")
				ph := c.StartPhase()
				d = embed.ParallelEmbed(c, pl.h, o.embed)
				te, tc := ph.Stop()
				t.Embed += te
				t.EmbedComm += tc
				// Trials share no embedding, so only a single pass has an
				// embed checkpoint to resume from.
				if pl.save != nil && len(s.opts) == 1 {
					pl.save.saveEmbed(c, t, d)
				}
			}

			c.SetPhase(pl.phase)
			ph := c.StartPhase()
			res := pl.kernel(c, g, d, o.cfg)
			tp, tc := ph.Stop()
			t.Partition += tp
			t.PartitionComm += tc
			best.offer(ti, d, res)
		}
		if best.n > 1 {
			s.combine(c, g, best, t)
		}
		t.Total = c.Elapsed()
		t.TotalComm = c.CommElapsed()

		// Assemble the global partition outside the timed region; each
		// rank owns a disjoint vertex set, so the writes are race-free.
		for i, id := range best.first.res.OwnedIDs {
			part[id] = best.first.res.Side[i]
		}
	})
	if err != nil {
		return nil, stats, err
	}
	head := pairs[0].first // its score is globally replicated
	return &Result{
		Part:      part,
		Cut:       head.score.cut,
		CutBefore: head.res.CutBefore,
		Imbalance: head.score.imb,
		StripSize: head.res.StripSize,
		P:         p,
		Times:     maxTimes(times),
		Stats:     stats,
	}, stats, nil
}
