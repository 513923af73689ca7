// Rollback recovery for ScalaPart runs: level checkpoints at the
// pipeline's phase boundaries plus two recovery policies layered on the
// simulated runtime's failure reporting.
//
// The multilevel pipeline has natural consistency points — every phase
// ends with a synchronising collective, so "all ranks finished
// coarsening" and "all ranks finished embedding" are global states a
// driver can capture without extra synchronisation. A checkpoint stores,
// per rank, the runtime counters (mpi.RankSnapshot: virtual clock,
// communication time, traffic, and the communication-event cursor fault
// plans address) plus the embedding views when the embed phase is done;
// the coarse hierarchy and RNG seeds live in Options and are shared by
// construction.
//
// When a world dies — a KillRank fault, a panic, an exhausted retry
// budget, or a watchdog-detected deadlock — the driver rolls back to the
// newest complete checkpoint and re-enters the pipeline:
//
//   - respawn: all P ranks relaunch on fresh goroutines, restore their
//     snapshots, and re-run from the checkpointed phase. Determinism
//     makes the replay reproduce the dead rank's work exactly, so the
//     final cut is identical to the fault-free run.
//   - shrink (ULFM-style): the survivors agree on a P−1 world, the dead
//     rank's vertices are redistributed by the same block rule as the
//     initial distribution (embed.SplitCoords over the checkpointed
//     global embedding), and partitioning continues with P−1 ranks.
//     Quality may drop — the geometric partition at P−1 is a different
//     partition — but correctness may not.
//
// Faults fire at most once: after a failed attempt the driver prunes
// every fault whose (rank, event) position the dead world already
// passed (FaultPlan.Remaining over RankStats.Events), because a
// physical failure does not replay with the retry. Only when the retry
// budget and both policies are exhausted does the driver reach
// SequentialFallback.
package core

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/coarsen"
	"repro/internal/embed"
	"repro/internal/geometry"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// RecoveryPolicy selects what PartitionChecked does when a rank fails.
type RecoveryPolicy int

const (
	// RecoverOff aborts the run on the first rank failure and returns
	// the error, the pre-recovery behaviour.
	RecoverOff RecoveryPolicy = iota
	// RecoverRespawn re-runs the dead rank's work from the last complete
	// level checkpoint on a fresh goroutine; the other ranks re-enter
	// the level alongside it. Escalates to shrink when respawn attempts
	// are exhausted.
	RecoverRespawn
	// RecoverShrink drops the dead rank ULFM-style: survivors agree on a
	// P−1 world, the dead rank's vertices are redistributed by the
	// initial block rule, and the run continues shrunken.
	RecoverShrink
)

func (p RecoveryPolicy) String() string {
	switch p {
	case RecoverOff:
		return "off"
	case RecoverRespawn:
		return "respawn"
	case RecoverShrink:
		return "shrink"
	}
	return fmt.Sprintf("RecoveryPolicy(%d)", int(p))
}

// ParseRecoveryPolicy parses the -recover flag values: off, respawn,
// shrink ("" means off).
func ParseRecoveryPolicy(s string) (RecoveryPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "off":
		return RecoverOff, nil
	case "respawn":
		return RecoverRespawn, nil
	case "shrink":
		return RecoverShrink, nil
	}
	return RecoverOff, fmt.Errorf("unknown recovery policy %q (want off, respawn, or shrink)", s)
}

// RecoverOptions configures the recovery subsystem of a ScalaPart run.
// The zero value means recovery off.
type RecoverOptions struct {
	// Policy selects the recovery behaviour on rank failure.
	Policy RecoveryPolicy
	// RetryBudget is the reliability layer's retransmissions per message
	// before a dropped link escalates to a rank failure; 0 selects
	// mpi.DefaultRetryBudget. Any non-off policy enables the reliability
	// layer.
	RetryBudget int
	// MaxRespawns bounds respawn attempts before escalating to shrink
	// (0 = default 2, negative = no respawns).
	MaxRespawns int
	// MaxShrinks bounds world shrinks before falling back to the
	// sequential baseline (0 = default 2, negative = no shrinks).
	MaxShrinks int
}

func (o RecoverOptions) withDefaults() RecoverOptions {
	if o.RetryBudget == 0 {
		o.RetryBudget = mpi.DefaultRetryBudget
	}
	switch {
	case o.MaxRespawns == 0:
		o.MaxRespawns = 2
	case o.MaxRespawns < 0:
		o.MaxRespawns = 0
	}
	switch {
	case o.MaxShrinks == 0:
		o.MaxShrinks = 2
	case o.MaxShrinks < 0:
		o.MaxShrinks = 0
	}
	return o
}

// RecoveryStats summarises what the recovery driver did to produce a
// result. Attempts == 1 with no entries anywhere means the first world
// succeeded (possibly with reliability-layer healing, which needs no
// driver intervention).
type RecoveryStats struct {
	Attempts int      // worlds launched, including the successful one
	Respawns int      // respawn recoveries performed
	Shrinks  int      // world shrinks performed
	Disarmed int      // faults pruned because a failed world already fired them
	FinalP   int      // ranks in the world that produced the result
	Resumes  []string // where each recovery attempt resumed ("respawn@embed", "shrink@P=3", ...)
	Errors   []string // the failures that triggered recovery, in order
}

func (s *RecoveryStats) String() string {
	if s == nil {
		return "recovery: off"
	}
	return fmt.Sprintf("recovery: %d attempt(s), %d respawn(s), %d shrink(s), %d fault(s) disarmed, final P=%d",
		s.Attempts, s.Respawns, s.Shrinks, s.Disarmed, s.FinalP)
}

// pipelineStage is where an attempt (re-)enters the pipeline.
type pipelineStage int

const (
	stageStart     pipelineStage = iota // full pipeline: coarsen, embed, partition
	stageEmbed                          // resume after coarsening
	stagePartition                      // resume after embedding: partition only
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

// checkpoint is the driver-side store of level-boundary state. Each
// rank goroutine writes only its own slots; the driver reads them after
// RunChecked returns (the WaitGroup join orders the accesses), so no
// locking is needed.
type checkpoint struct {
	p           int
	coarsenSnap []mpi.RankSnapshot
	coarsenT    []PhaseTimes
	coarsenOK   []bool
	embedSnap   []mpi.RankSnapshot
	embedT      []PhaseTimes
	embedViews  []*embed.Distributed
	embedOK     []bool
}

func newCheckpoint(p int) *checkpoint {
	return &checkpoint{
		p:           p,
		coarsenSnap: make([]mpi.RankSnapshot, p),
		coarsenT:    make([]PhaseTimes, p),
		coarsenOK:   make([]bool, p),
		embedSnap:   make([]mpi.RankSnapshot, p),
		embedT:      make([]PhaseTimes, p),
		embedViews:  make([]*embed.Distributed, p),
		embedOK:     make([]bool, p),
	}
}

func (ck *checkpoint) saveCoarsen(rank int, s mpi.RankSnapshot, t PhaseTimes) {
	ck.coarsenSnap[rank] = s
	ck.coarsenT[rank] = t
	ck.coarsenOK[rank] = true
}

func (ck *checkpoint) saveEmbed(rank int, s mpi.RankSnapshot, t PhaseTimes, d *embed.Distributed) {
	ck.embedSnap[rank] = s
	ck.embedT[rank] = t
	ck.embedViews[rank] = d
	ck.embedOK[rank] = true
}

func all(ok []bool) bool {
	for _, b := range ok {
		if !b {
			return false
		}
	}
	return true
}

func (ck *checkpoint) coarsenComplete() bool { return ck != nil && all(ck.coarsenOK) }
func (ck *checkpoint) embedComplete() bool   { return ck != nil && all(ck.embedOK) }

// attemptConfig describes one world launch: where it enters the
// pipeline and with what restored state.
type attemptConfig struct {
	p         int
	start     pipelineStage
	model     mpi.Model
	h         *coarsen.Hierarchy
	boundary  [][]int64
	resume    []mpi.RankSnapshot   // per-rank counters to restore (nil = fresh clocks)
	baseTimes []PhaseTimes         // phase times accrued before the checkpoint
	views     []*embed.Distributed // per-rank embedding (stagePartition only)
	save      *checkpoint          // where to store level checkpoints (nil = don't)
	rejoin    bool                 // charge a synchronising "recover" barrier on entry
}

// runAttempt launches one world and runs the pipeline from cfg.start.
// It is the single body both the recovery-off path and every recovery
// attempt execute, which is what guarantees a fresh full run charges
// exactly the historical cost sequence (bit-identical results). The
// returned stats are valid even on error (partial clocks at teardown);
// the recovery driver needs their Events counters to disarm fired
// faults.
func runAttempt(g *graph.Graph, opt Options, cfg attemptConfig) (*Result, []mpi.RankStats, error) {
	p := cfg.p
	part := make([]int32, g.NumVertices())
	times := make([]PhaseTimes, p)
	var cut, cutBefore int64
	var imb float64
	var strip int
	stats, err := mpi.RunChecked(p, cfg.model, func(c *mpi.Comm) {
		rank := c.Rank()
		t := &times[rank]
		if cfg.resume != nil {
			c.Restore(cfg.resume[rank])
			*t = cfg.baseTimes[rank]
		}
		if cfg.rejoin {
			// Recovery re-entry: one synchronising barrier models the
			// survivors and the respawned (or shrunken) world agreeing to
			// re-enter the pipeline, and aligns the restored clocks.
			c.SetPhase("recover")
			c.Barrier()
		}
		var d *embed.Distributed
		if cfg.start == stageStart {
			c.SetPhase("coarsen")
			ph := c.StartPhase()
			coarsen.ChargeCosts(c, cfg.h, cfg.boundary, opt.CoarsenRounds, 2)
			t.Coarsen, t.CoarsenComm = ph.Stop()
			if cfg.save != nil {
				cfg.save.saveCoarsen(rank, c.Snapshot(), *t)
			}
		}
		if cfg.start <= stageEmbed {
			c.SetPhase("embed")
			ph := c.StartPhase()
			d = embed.ParallelEmbed(c, cfg.h, opt.Embed)
			te, tc := ph.Stop()
			t.Embed += te
			t.EmbedComm += tc
			if cfg.save != nil {
				cfg.save.saveEmbed(rank, c.Snapshot(), *t, d)
			}
		} else {
			d = cfg.views[rank]
		}

		c.SetPhase("partition")
		ph := c.StartPhase()
		res := geopart.ParallelPartition(c, g, d, opt.Partition)
		t.Partition, t.PartitionComm = ph.Stop()
		t.Total = c.Elapsed()
		t.TotalComm = c.CommElapsed()

		// Assemble the global partition outside the timed region; each
		// rank owns a disjoint vertex set, so the writes are race-free.
		for i, id := range res.OwnedIDs {
			part[id] = res.Side[i]
		}
		if rank == 0 {
			cut, cutBefore = res.Cut, res.CutBefore
			imb = res.Imbalance
			strip = res.StripSize
		}
	})
	if err != nil {
		return nil, stats, err
	}
	return &Result{
		Part:      part,
		Cut:       cut,
		CutBefore: cutBefore,
		Imbalance: imb,
		StripSize: strip,
		P:         p,
		Times:     maxTimes(times),
		Stats:     stats,
	}, stats, nil
}

// partitionRecover is the recovery driver: it launches worlds until one
// completes, rolling back to level checkpoints and applying the
// configured policy between attempts.
func partitionRecover(g *graph.Graph, p int, opt Options) (*Result, error) {
	ro := opt.Recover.withDefaults()
	rs := &RecoveryStats{FinalP: p}

	model := opt.Model
	model.Reliable = &mpi.Reliability{RetryBudget: ro.RetryBudget}
	rec := model.Trace
	// Never mutate the caller's plan: bench harnesses share one plan
	// across cached runs.
	plan := model.Faults.Clone()

	h := coarsen.BuildHierarchy(g, p, opt.Coarsen)
	boundary := coarsen.BoundaryEdges(h)
	ck := newCheckpoint(p)
	cfg := attemptConfig{p: p, start: stageStart, h: h, boundary: boundary, save: ck}
	curP := p
	// coords is the finest-level global embedding, assembled once a
	// post-embed checkpoint completes; it outlives world shrinks because
	// the embedding values do not depend on the rank layout.
	var coords []geometry.Vec2
	respawns, shrinks := 0, 0
	var lastErr error

	for {
		rs.Attempts++
		if rec != nil && rs.Attempts > 1 {
			rec.Reset() // one recorder, final attempt only
		}
		model.Faults = plan
		cfg.model = model
		res, stats, err := runAttempt(g, opt, cfg)
		if err == nil {
			res.Recovery = rs
			return res, nil
		}
		lastErr = err
		rs.Errors = append(rs.Errors, err.Error())

		// A fault fires at most once: prune every fault whose position
		// the dead world already passed, so the replay does not re-kill
		// the same rank at the same event.
		events := make([]int64, len(stats))
		for i, s := range stats {
			events[i] = s.Events
		}
		before := plan.Len()
		plan = plan.Remaining(events)
		rs.Disarmed += before - plan.Len()

		dead := 0
		var re *mpi.RankError
		if errors.As(err, &re) && re.Rank >= 0 && re.Rank < curP {
			dead = re.Rank // for deadlocks: the first blocked rank
		}

		// Keep the embedding once any world has completed the embed
		// phase; it is the state shrink redistributes from.
		if coords == nil && ck.embedComplete() {
			coords = assembleCoords(g, ck.embedViews)
		}

		if ro.Policy == RecoverRespawn && respawns < ro.MaxRespawns {
			respawns++
			rs.Respawns++
			cfg = respawnConfig(cfg, ck)
			rs.Resumes = append(rs.Resumes, "respawn@"+cfg.start.String())
			continue
		}
		if curP > 1 && shrinks < ro.MaxShrinks {
			shrinks++
			rs.Shrinks++
			newP := curP - 1
			plan = plan.ShrinkRank(dead)
			var err error
			if cfg, ck, err = shrinkConfig(g, opt, cfg, ck, coords, dead, newP); err != nil {
				return nil, fmt.Errorf("recovery shrink to P=%d: %w", newP, err)
			}
			curP = newP
			rs.FinalP = newP
			rs.Resumes = append(rs.Resumes, fmt.Sprintf("shrink@P=%d/%s", newP, cfg.start))
			continue
		}
		break
	}

	// Retry budget and both policies exhausted: last resort.
	fb, ferr := SequentialFallback(g, opt.Seed)
	if ferr != nil {
		return nil, fmt.Errorf("recovery exhausted after %d attempt(s) (last failure: %v); %w", rs.Attempts, lastErr, ferr)
	}
	rs.FinalP = 1
	fb.Recovery = rs
	return fb, nil
}

// respawnConfig picks the newest complete checkpoint to respawn from.
// All ranks relaunch (the runtime has no partial worlds): survivors
// restore the same snapshots they checkpointed, so their replay is the
// work they already did, and the respawned rank's replay recreates the
// lost state deterministically.
func respawnConfig(cfg attemptConfig, ck *checkpoint) attemptConfig {
	switch {
	case ck != nil && ck.p == cfg.p && ck.embedComplete():
		return attemptConfig{
			p: cfg.p, start: stagePartition,
			resume:    append([]mpi.RankSnapshot(nil), ck.embedSnap...),
			baseTimes: append([]PhaseTimes(nil), ck.embedT...),
			views:     append([]*embed.Distributed(nil), ck.embedViews...),
			h:         cfg.h, boundary: cfg.boundary, save: ck, rejoin: true,
		}
	case ck != nil && ck.p == cfg.p && ck.coarsenComplete():
		return attemptConfig{
			p: cfg.p, start: stageEmbed,
			resume:    append([]mpi.RankSnapshot(nil), ck.coarsenSnap...),
			baseTimes: append([]PhaseTimes(nil), ck.coarsenT...),
			h:         cfg.h, boundary: cfg.boundary, save: ck, rejoin: true,
		}
	case cfg.start != stageStart:
		// A shrunken partition-only world with no checkpoint of its own:
		// replay its entry state.
		cfg.rejoin = true
		return cfg
	default:
		// Nothing checkpointed yet: restart the pipeline from scratch
		// (still a respawn — the world keeps its size).
		cfg.resume = nil
		cfg.baseTimes = nil
		cfg.views = nil
		cfg.start = stageStart
		cfg.rejoin = true
		return cfg
	}
}

// shrinkConfig builds the P−1 world after rank `dead` is dropped. With
// a known global embedding the survivors redistribute the finest-level
// coordinates by the same block rule as the initial distribution
// (embed.SplitCoords) and re-enter at the partition phase; without one
// the shrunken world restarts the pipeline (the hierarchy layout
// depends on P, so coarsen-level state cannot be reused across sizes).
func shrinkConfig(g *graph.Graph, opt Options, cfg attemptConfig, ck *checkpoint, coords []geometry.Vec2, dead, newP int) (attemptConfig, *checkpoint, error) {
	var snaps []mpi.RankSnapshot
	var baseT []PhaseTimes
	switch {
	case cfg.start == stagePartition && cfg.resume != nil:
		// The failed world was already partition-only: its entry
		// snapshots are the survivors' post-embed state.
		snaps, baseT = cfg.resume, cfg.baseTimes
	case ck != nil && ck.p == cfg.p && ck.embedComplete():
		snaps, baseT = ck.embedSnap, ck.embedT
	}
	if coords != nil && snaps != nil {
		if err := checkGeometricInput(g, coords, newP); err != nil {
			return attemptConfig{}, nil, err
		}
		return attemptConfig{
			p: newP, start: stagePartition,
			resume:    dropIndex(snaps, dead),
			baseTimes: dropIndex(baseT, dead),
			views:     embed.SplitCoords(g, coords, newP),
			h:         cfg.h, boundary: cfg.boundary, rejoin: true,
		}, nil, nil
	}
	h := coarsen.BuildHierarchy(g, newP, opt.Coarsen)
	nck := newCheckpoint(newP)
	return attemptConfig{
		p: newP, start: stageStart,
		h: h, boundary: coarsen.BoundaryEdges(h),
		save: nck, rejoin: true,
	}, nck, nil
}

// assembleCoords unions the finest-level owned coordinates of every
// rank's embedding view into the global coordinate array; ownership
// partitions the vertex set, so every vertex is written exactly once.
func assembleCoords(g *graph.Graph, views []*embed.Distributed) []geometry.Vec2 {
	coords := make([]geometry.Vec2, g.NumVertices())
	for _, d := range views {
		if d == nil {
			continue
		}
		for i, id := range d.OwnedIDs {
			coords[id] = d.OwnedPos[i]
		}
	}
	return coords
}

// dropIndex returns a copy of s without element i (the dead rank's
// slot), the survivor renumbering of a world shrink.
func dropIndex[T any](s []T, i int) []T {
	out := make([]T, 0, len(s)-1)
	out = append(out, s[:i]...)
	return append(out, s[i+1:]...)
}
