// Package core is ScalaPart: the paper's parallel multilevel embedded
// graph partitioner. A run coarsens the graph ParMetis-style with the
// active processor count quartering every retained level, embeds the
// coarsest graph with the fixed-lattice force scheme, smooths the
// embedding back up the hierarchy, bisects the embedded graph with the
// parallel geometric mesh partitioner (SP-PG7-NL), and refines the cut
// with Fiduccia–Mattheyses on a coordinate strip.
//
// Everything runs on the simulated message-passing runtime of
// internal/mpi: results (cuts, partitions) come from the genuinely
// parallel algorithm, execution times come from the runtime's virtual
// clocks.
package core

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/coarsen"
	"repro/internal/embed"
	"repro/internal/geometry"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// Options configures a ScalaPart run.
type Options struct {
	Coarsen   coarsen.Options
	Embed     embed.ParallelOptions
	Partition geopart.ParallelConfig
	Model     mpi.Model
	// CoarsenRounds is the number of matching-negotiation communication
	// rounds charged per coarsening step (ParMetis-style distributed
	// matching resolves match conflicts over several rounds). Default 4.
	CoarsenRounds int
	Seed          int64
	// Trials > 1 enables the evolutionary search: the embed+partition
	// tail runs Trials times with decorrelated RNG streams inside one
	// simulated world (the modeled clock pays for all of them), and the
	// two best bisections are combined by freeing their disagreement
	// region under one distributed FM round. 0 or 1 means the single
	// historical pipeline pass. Composes with recovery: a respawn
	// replays every trial from the coarsen checkpoint.
	Trials int
	// Recover configures rollback recovery: with a non-off policy, rank
	// failures roll back to level checkpoints and the run continues
	// (respawned or shrunken) instead of aborting. The zero value keeps
	// the historical abort-on-failure behaviour. See RecoverOptions.
	Recover RecoverOptions
}

// DefaultOptions returns the configuration used throughout the paper's
// evaluation: quartering hierarchy, block size 4, SP-PG7-NL with strip
// refinement.
func DefaultOptions(seed int64) Options {
	return Options{
		Coarsen:   coarsen.Options{Seed: seed, VertsPerRank: 96},
		Embed:     embed.ParallelOptions{Seed: seed},
		Partition: geopart.DefaultParallelConfig(),
		Model:     mpi.DefaultModel(),
		Seed:      seed,
	}
}

// PhaseTimes breaks the modeled execution time (max over ranks) into
// the three components of Figure 7, with the communication share of
// each (Figure 8).
type PhaseTimes struct {
	Coarsen, Embed, Partition, Total      float64
	CoarsenComm, EmbedComm, PartitionComm float64
	TotalComm                             float64
}

// Result is the outcome of a parallel partitioning run.
type Result struct {
	Part      []int32 // global bisection, assembled outside the timed region
	Cut       int64
	CutBefore int64 // cut before strip refinement
	Imbalance float64
	StripSize int
	P         int
	Times     PhaseTimes
	Stats     []mpi.RankStats
	Fallback  bool // true when the result comes from SequentialFallback
	// Recovery summarises what the recovery driver did; nil when
	// recovery was off. Attempts == 1 means the first world succeeded.
	Recovery *RecoveryStats
}

// PartitionChecked runs ScalaPart on p simulated ranks and returns the
// global bisection with its modeled timing breakdown. A world size
// below one is an error, and a rank failure (panic, injected fault, or
// watchdog-detected deadlock) comes back as an *mpi.RankError naming
// the rank and pipeline phase instead of crashing the caller.
func PartitionChecked(g *graph.Graph, p int, opt Options) (*Result, error) {
	if err := checkWorldSize(p); err != nil {
		return nil, fmt.Errorf("Partition: %w", err)
	}
	if opt.Model == (mpi.Model{}) {
		opt.Model = mpi.DefaultModel()
	}
	if opt.Coarsen.Seed == 0 {
		opt.Coarsen.Seed = opt.Seed
	}
	if opt.Embed.Seed == 0 {
		opt.Embed.Seed = opt.Seed
	}
	if opt.CoarsenRounds == 0 {
		opt.CoarsenRounds = 4
	}
	h := coarsen.BuildHierarchy(g, p, opt.Coarsen)
	return partitionRecover(g, opt, stagePlan{
		p: p, model: opt.Model, start: stageStart,
		h: h, boundary: coarsen.BoundaryEdges(h), coarsenRounds: opt.CoarsenRounds,
		embed: opt.Embed, trials: opt.Trials,
		cfg: opt.Partition, kernel: geopart.ParallelPartition, phase: "partition",
	})
}

// SequentialFallback partitions g with the single-rank ParMetis-like
// baseline under a pristine cost model (no fault plan, no watchdog),
// the recovery path drivers use after a parallel run fails. The result
// is flagged Fallback so reports cannot silently mix degraded runs
// with healthy ones.
func SequentialFallback(g *graph.Graph, seed int64) (*Result, error) {
	cfg := baseline.ParMetisLike(seed)
	cfg.Model = mpi.DefaultModel() // never inherit faults into the recovery path
	res, err := baseline.PartitionChecked(g, 1, cfg)
	if err != nil {
		return nil, fmt.Errorf("sequential fallback failed: %w", err)
	}
	return &Result{
		Part:      res.Part,
		Cut:       res.Cut,
		Imbalance: res.Imbalance,
		P:         1,
		Times:     PhaseTimes{Total: res.Total, TotalComm: res.Comm},
		Stats:     res.Stats,
		Fallback:  true,
	}, nil
}

// PartitionGeometricChecked runs only the parallel geometric
// partitioner SP-PG7-NL on pre-existing coordinates (the paper's
// Figure 4 and the dynamic-repartitioning use case of Section 5):
// coordinates are assumed already distributed, so only partitioning and
// refinement are timed. Bad input and rank failures come back as
// errors, as in PartitionChecked.
func PartitionGeometricChecked(g *graph.Graph, coords []geometry.Vec2, p int, cfg geopart.ParallelConfig, model mpi.Model) (*Result, error) {
	if err := checkGeometricInput(g, coords, p); err != nil {
		return nil, fmt.Errorf("PartitionGeometric: %w", err)
	}
	return partitionCoords(g, coords, stagePlan{
		p: p, model: model, cfg: cfg, kernel: geopart.ParallelPartition, phase: "partition",
	})
}

// RCBParallelChecked times Zoltan-style parallel recursive coordinate
// bisection on pre-existing coordinates, the paper's scalability
// yardstick. Bad input and rank failures come back as errors, as in
// PartitionChecked.
func RCBParallelChecked(g *graph.Graph, coords []geometry.Vec2, p int, model mpi.Model) (*Result, error) {
	if err := checkGeometricInput(g, coords, p); err != nil {
		return nil, fmt.Errorf("RCBParallel: %w", err)
	}
	return partitionCoords(g, coords, stagePlan{p: p, model: model, kernel: rcbKernel, phase: "rcb"})
}

// partitionCoords runs pl from the partition stage on coordinates that
// are already distributed: only partitioning and refinement are timed,
// so Total is the partition time.
func partitionCoords(g *graph.Graph, coords []geometry.Vec2, pl stagePlan) (*Result, error) {
	if pl.model == (mpi.Model{}) {
		pl.model = mpi.DefaultModel()
	}
	pl.start = stagePartition
	pl.views = embed.SplitCoords(g, coords, pl.p)
	res, _, err := pl.run(g)
	return res, err
}

// checkWorldSize validates the world size every entry point takes.
func checkWorldSize(p int) error {
	if p < 1 {
		return fmt.Errorf("world size p=%d, want at least 1", p)
	}
	return nil
}

// checkGeometricInput validates what embed.SplitCoords requires of the
// geometric entry points' input: a positive world size and one
// coordinate per vertex. Non-finite coordinates are accepted; they
// partition like any other (TestGeometricCheckedBadInput).
func checkGeometricInput(g *graph.Graph, coords []geometry.Vec2, p int) error {
	if err := checkWorldSize(p); err != nil {
		return err
	}
	if n := g.NumVertices(); len(coords) != n {
		return fmt.Errorf("%d coordinates for %d vertices", len(coords), n)
	}
	return nil
}

// maxTimes reduces per-rank phase times to their maxima, the modeled
// parallel time of each phase.
func maxTimes(ts []PhaseTimes) PhaseTimes {
	var m PhaseTimes
	for _, t := range ts {
		m.Coarsen = max2(m.Coarsen, t.Coarsen)
		m.Embed = max2(m.Embed, t.Embed)
		m.Partition = max2(m.Partition, t.Partition)
		m.Total = max2(m.Total, t.Total)
		m.CoarsenComm = max2(m.CoarsenComm, t.CoarsenComm)
		m.EmbedComm = max2(m.EmbedComm, t.EmbedComm)
		m.PartitionComm = max2(m.PartitionComm, t.PartitionComm)
		m.TotalComm = max2(m.TotalComm, t.TotalComm)
	}
	return m
}

func max2(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
