package mpi

import (
	"fmt"

	"repro/internal/hostpar"
)

// Batched rank-stepping: how simulated ranks are scheduled on the host.
//
// The historical replay runs every simulated rank on its own live
// goroutine for the whole run. That is the right shape when P is at or
// below the host's core count, but at P = 256–1024 on a small host it
// puts hundreds of compute-heavy goroutines in the runnable state at
// once: the Go scheduler round-robins them through the cores, each
// preemption evicting the rank's working set (positions, ghost arrays,
// CSR rows) from cache, and the run pays for P live stacks' worth of
// scheduler churn between every pair of communication points.
//
// Batched mode bounds that. A world still owns one goroutine per rank —
// the body is arbitrary user code with blocking communication, so each
// rank needs its own stack — but only a batch of at most
// hostpar.Workers() ranks is admitted to *run* at any moment. Admission
// is a slot gate: a rank holds a slot while it executes local compute,
// and hands the slot to the next compute-ready rank whenever it parks
// in a receive or an incomplete collective.
// The effect is exactly "step N ranks' local compute on the host worker
// pool between communication points": between any two communication
// events at most N ranks are runnable, and a parked rank costs one idle
// goroutine instead of a scheduler contender.
//
// The gate is invisible to the model by construction: virtual clocks,
// message matching, reduction order, and fault positions are all
// independent of host scheduling (see the package comment), so batched
// and goroutine replays produce bit-identical cuts, clocks, and
// traffic. TestReplayModesBitIdentical pins this. Deadlock freedom is
// an invariant of the slot protocol: a rank never blocks on
// communication while holding a slot, so every slot is either held by a
// runnable rank or free in the gate; a rank waiting for a slot is
// compute-ready, not waiting on any other rank. The watchdog's picture
// is unchanged — gate waiters publish no waitInfo (they are "running"),
// and a genuine deadlock still ends with every rank parked in a
// communication wait with all slots free.

// ReplayMode selects the host scheduling of simulated ranks; each world
// reads it from its Model.Replay.
type ReplayMode int32

const (
	// ReplayGoroutine is the historical mode: P live goroutines,
	// scheduling left to the Go runtime.
	ReplayGoroutine ReplayMode = iota
	// ReplayBatched admits at most hostpar.Workers() ranks to local
	// compute between communication points (see above).
	ReplayBatched
)

func (m ReplayMode) String() string {
	if m == ReplayBatched {
		return "batched"
	}
	return "goroutine"
}

// ParseReplayMode parses a -replay flag value.
func ParseReplayMode(s string) (ReplayMode, error) {
	switch s {
	case "", "goroutine":
		return ReplayGoroutine, nil
	case "batched":
		return ReplayBatched, nil
	}
	return 0, fmt.Errorf("unknown replay mode %q (want goroutine or batched)", s)
}

// newStepGate builds the admission gate for a new world of p ranks
// under the given replay mode, or nil when gating is pointless
// (goroutine mode, or a batch that already covers every rank).
func newStepGate(p int, mode ReplayMode) chan struct{} {
	if mode != ReplayBatched {
		return nil
	}
	batch := hostpar.Workers()
	if batch >= p {
		return nil
	}
	g := make(chan struct{}, batch)
	for i := 0; i < batch; i++ {
		g <- struct{}{}
	}
	return g
}

// acquireSlot admits this rank to local compute, blocking until a slot
// frees up. A world abort while parked tears the rank down exactly like
// an aborted communication wait.
func (c *Comm) acquireSlot() {
	if c.world.gate == nil || c.state.slotHeld {
		return
	}
	select {
	case <-c.world.gate:
	default:
		select {
		case <-c.world.gate:
		case <-c.world.abortCh:
			panic(abortSignal{})
		}
	}
	c.state.slotHeld = true
}

// releaseSlot hands this rank's compute slot to the next compute-ready
// rank. Never blocks: slots are conserved, so the gate always has room.
func (c *Comm) releaseSlot() {
	if c.world.gate == nil || !c.state.slotHeld {
		return
	}
	c.state.slotHeld = false
	c.world.gate <- struct{}{}
}
