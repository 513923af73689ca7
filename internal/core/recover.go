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
}

// The recovery budgets: a respawn policy respawns up to maxRespawns
// times before escalating to shrink, and either policy shrinks the
// world up to maxShrinks times before falling back to the sequential
// baseline.
const (
	maxRespawns = 2
	maxShrinks  = 2
)

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

// saveCoarsen and saveEmbed store the calling rank's state at a level
// boundary: its runtime counters, its phase times so far and, after
// embedding, its embedding view.
func (ck *checkpoint) saveCoarsen(c *mpi.Comm, t *PhaseTimes) {
	rank := c.Rank()
	ck.coarsenSnap[rank] = c.Snapshot()
	ck.coarsenT[rank] = *t
	ck.coarsenOK[rank] = true
}

func (ck *checkpoint) saveEmbed(c *mpi.Comm, t *PhaseTimes, d *embed.Distributed) {
	rank := c.Rank()
	ck.embedSnap[rank] = c.Snapshot()
	ck.embedT[rank] = *t
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

// partitionRecover runs a full-pipeline plan under opt.Recover. With
// recovery off the plan's one world is the run, as is: no reliability
// layer, no fault-plan copy, no checkpoints, and Result.Recovery stays
// nil. Otherwise it launches worlds until one completes, rolling back
// to level checkpoints and applying the configured policy between
// attempts.
func partitionRecover(g *graph.Graph, opt Options, pl stagePlan) (*Result, error) {
	if opt.Recover.Policy == RecoverOff {
		res, _, err := pl.run(g)
		return res, err
	}
	rs := &RecoveryStats{FinalP: pl.p}

	model := pl.model
	model.Reliable = &mpi.Reliability{RetryBudget: opt.Recover.RetryBudget}
	rec := model.Trace
	// Never mutate the caller's plan: bench harnesses share one plan
	// across cached runs.
	plan := model.Faults.Clone()

	ck := newCheckpoint(pl.p)
	pl.save = ck
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
		pl.model = model
		res, stats, err := pl.run(g)
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
		if errors.As(err, &re) && re.Rank >= 0 && re.Rank < pl.p {
			dead = re.Rank // for deadlocks: the first blocked rank
		}

		// Keep the embedding once any world has completed the embed
		// phase; it is the state shrink redistributes from.
		if coords == nil && ck.embedComplete() {
			coords = assembleCoords(g, ck.embedViews)
		}

		if opt.Recover.Policy == RecoverRespawn && respawns < maxRespawns {
			respawns++
			rs.Respawns++
			pl = respawnPlan(pl, ck)
			rs.Resumes = append(rs.Resumes, "respawn@"+pl.start.String())
			continue
		}
		if pl.p > 1 && shrinks < maxShrinks {
			shrinks++
			rs.Shrinks++
			newP := pl.p - 1
			plan = plan.ShrinkRank(dead)
			var err error
			if pl, ck, err = shrinkPlan(g, opt, pl, ck, coords, dead, newP); err != nil {
				return nil, fmt.Errorf("recovery shrink to P=%d: %w", newP, err)
			}
			rs.FinalP = newP
			rs.Resumes = append(rs.Resumes, fmt.Sprintf("shrink@P=%d/%s", newP, pl.start))
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

// respawnPlan picks the newest complete checkpoint to respawn from.
// All ranks relaunch (the runtime has no partial worlds): survivors
// restore the same snapshots they checkpointed, so their replay is the
// work they already did, and the respawned rank's replay recreates the
// lost state deterministically. A multi-trial run saves no embed
// checkpoint, so it resumes after coarsening and replays every trial.
func respawnPlan(pl stagePlan, ck *checkpoint) stagePlan {
	pl.rejoin = true
	switch {
	case ck != nil && ck.p == pl.p && ck.embedComplete():
		pl.start = stagePartition
		pl.resume = append([]mpi.RankSnapshot(nil), ck.embedSnap...)
		pl.baseTimes = append([]PhaseTimes(nil), ck.embedT...)
		pl.views = append([]*embed.Distributed(nil), ck.embedViews...)
		pl.save = ck
	case ck != nil && ck.p == pl.p && ck.coarsenComplete():
		pl.start = stageEmbed
		pl.resume = append([]mpi.RankSnapshot(nil), ck.coarsenSnap...)
		pl.baseTimes = append([]PhaseTimes(nil), ck.coarsenT...)
		pl.views = nil
		pl.save = ck
	case pl.start != stageStart:
		// A shrunken partition-only world with no checkpoint of its own:
		// replay its entry state.
	default:
		// Nothing checkpointed yet: restart the pipeline from scratch
		// (still a respawn — the world keeps its size).
		pl.resume, pl.baseTimes, pl.views = nil, nil, nil
	}
	return pl
}

// shrinkPlan builds the P−1 world after rank `dead` is dropped. With a
// known global embedding the survivors redistribute the finest-level
// coordinates by the same block rule as the initial distribution
// (embed.SplitCoords) and re-enter at the partition stage; without one
// — always the case for a multi-trial run — the shrunken world restarts
// the pipeline (the hierarchy layout depends on P, so coarsen-level
// state cannot be reused across sizes).
func shrinkPlan(g *graph.Graph, opt Options, pl stagePlan, ck *checkpoint, coords []geometry.Vec2, dead, newP int) (stagePlan, *checkpoint, error) {
	var snaps []mpi.RankSnapshot
	var baseT []PhaseTimes
	switch {
	case pl.start == stagePartition && pl.resume != nil:
		// The failed world was already partition-only: its entry
		// snapshots are the survivors' post-embed state.
		snaps, baseT = pl.resume, pl.baseTimes
	case ck != nil && ck.p == pl.p && ck.embedComplete():
		snaps, baseT = ck.embedSnap, ck.embedT
	}
	next := pl
	next.p = newP
	next.rejoin = true
	if coords != nil && snaps != nil {
		if err := checkGeometricInput(g, coords, newP, pl.model); err != nil {
			return stagePlan{}, nil, err
		}
		next.start = stagePartition
		next.resume = dropIndex(snaps, dead)
		next.baseTimes = dropIndex(baseT, dead)
		next.views = embed.SplitCoords(g, coords, newP)
		next.save = nil
		return next, nil, nil
	}
	nck := newCheckpoint(newP)
	next.start = stageStart
	next.h = coarsen.BuildHierarchy(g, newP, opt.Coarsen)
	next.boundary = coarsen.BoundaryEdges(next.h)
	next.resume, next.baseTimes, next.views = nil, nil, nil
	next.save = nck
	return next, nck, nil
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
