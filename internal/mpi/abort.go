package mpi

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// RankError is the structured failure RunChecked returns: which rank
// failed, what algorithm phase it was in (see Comm.SetPhase), and the
// underlying cause (a recovered panic, an *InjectedFault, a voluntary
// Comm.Abort error, or a *DeadlockError from the watchdog).
type RankError struct {
	Rank  int
	Phase string
	Err   error
}

func (e *RankError) Error() string {
	if e.Phase != "" {
		return fmt.Sprintf("rank %d failed in phase %q: %v", e.Rank, e.Phase, e.Err)
	}
	return fmt.Sprintf("rank %d failed: %v", e.Rank, e.Err)
}

func (e *RankError) Unwrap() error { return e.Err }

// RankWait is one rank's entry in a deadlock diagnostic dump.
type RankWait struct {
	Rank  int
	Phase string  // last phase set via Comm.SetPhase
	Clock float64 // virtual clock when the rank blocked (or finished)
	State string  // "done", "running", or a description of the blocked op
	Done  bool
}

// DeadlockError is the watchdog's diagnostic: the world made no
// progress for a full watchdog window with every live rank blocked. It
// lists, per rank, the virtual clock and what the rank is waiting on
// and from whom.
type DeadlockError struct {
	Window time.Duration
	Ranks  []RankWait
}

// Blocked returns the ranks that were blocked (not finished) when the
// watchdog fired.
func (e *DeadlockError) Blocked() []int {
	var out []int
	for _, r := range e.Ranks {
		if !r.Done {
			out = append(out, r.Rank)
		}
	}
	return out
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	blocked := e.Blocked()
	fmt.Fprintf(&b, "deadlock: no progress for %v, %d of %d ranks blocked", e.Window, len(blocked), len(e.Ranks))
	for _, r := range e.Ranks {
		fmt.Fprintf(&b, "\n  rank %d", r.Rank)
		if r.Phase != "" {
			fmt.Fprintf(&b, " [%s]", r.Phase)
		}
		fmt.Fprintf(&b, " @ %.6fs: %s", r.Clock, r.State)
	}
	return b.String()
}

// abortSignal is the panic value that tears a rank down after another
// rank aborted the world; RunChecked swallows it silently.
type abortSignal struct{}

// Wait kinds for the watchdog's per-rank status. (There is no send
// wait: sends are enqueue-and-go on the mailbox rings.)
const (
	waitRunning int32 = iota // not blocked
	waitRecv
	waitColl
	waitDone
)

// waitRec publishes what a rank is blocked on through per-rank atomics,
// so the watchdog reads it without racing the rank and the rank writes
// it without allocating (the historical design boxed a fresh waitInfo
// per blocking operation — an allocation on every park). The seq
// counter is bumped to odd before a publication and back to even after,
// seqlock-style: the watchdog treats an odd seq as "changing right
// now", i.e. not stuck, and uses (seq, kind) equality across samples as
// "still parked in the same operation". Soundness does not hinge on the
// seq snapshot alone: every completed blocking op also bumps the
// world's progress counter, which must stay frozen across the entire
// watchdog window for a deadlock to be declared.
type waitRec struct {
	seq   atomic.Uint64 // odd while a publication is in flight
	kind  atomic.Int32
	peer  atomic.Int32
	size  atomic.Int32
	gen   atomic.Int64
	clock atomic.Uint64          // math.Float64bits of the clock at publish
	op    atomic.Pointer[string] // interned op name; nil when running
	phase atomic.Pointer[string] // last Comm.SetPhase label
}

func (wr *waitRec) publish(kind int32, op *string, peer, size int32, gen int64, clock float64) {
	wr.seq.Add(1)
	wr.kind.Store(kind)
	wr.op.Store(op)
	wr.peer.Store(peer)
	wr.size.Store(size)
	wr.gen.Store(gen)
	wr.clock.Store(math.Float64bits(clock))
	wr.seq.Add(1)
}

func (wr *waitRec) phaseStr() string {
	if p := wr.phase.Load(); p != nil {
		return *p
	}
	return ""
}

func (wr *waitRec) clockVal() float64 {
	return math.Float64frombits(wr.clock.Load())
}

func (wr *waitRec) describe() string {
	op := ""
	if p := wr.op.Load(); p != nil {
		op = *p
	}
	switch wr.kind.Load() {
	case waitDone:
		return "done"
	case waitRecv:
		return fmt.Sprintf("blocked in %s from rank %d (no matching send)", op, wr.peer.Load())
	case waitColl:
		return fmt.Sprintf("blocked in collective %s over %d ranks (generation %d incomplete)", op, wr.size.Load(), wr.gen.Load())
	}
	return "running"
}

// waitSnap is one watchdog sample of a rank's wait record: the seq
// stamp identifies the publication, so equal snaps across polls mean
// "still parked in the same operation".
type waitSnap struct {
	seq  uint64
	kind int32
}

// DefaultWatchdogWindow is the stall window of runs whose
// Model.Watchdog is zero: if no rank makes progress for this long while
// every live rank is blocked, the watchdog aborts the world with a
// DeadlockError.
const DefaultWatchdogWindow = 2 * time.Second

// watchdog polls rank states and aborts the world when it observes a
// full window with every live rank blocked on the exact same operations
// (identical waitRec seq stamps) and the global progress counter
// frozen. The seq stamp makes false positives require a genuinely
// runnable goroutine to be starved for the entire window across several
// polls, which the Go scheduler does not do.
func (w *World) watchdog(window time.Duration, stop <-chan struct{}) {
	interval := window / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	prev := make([]waitSnap, w.size)
	cur := make([]waitSnap, w.size)
	havePrev := false
	var prevProgress int64 = -1
	strikes := 0
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		if w.aborted.Load() {
			return
		}
		blocked, done := 0, 0
		for i := range w.ranks {
			wr := &w.ranks[i].wait
			seq := wr.seq.Load()
			kind := wr.kind.Load()
			if seq%2 != 0 {
				// Mid-publication: the rank is demonstrably running.
				kind = waitRunning
			}
			cur[i] = waitSnap{seq: seq, kind: kind}
			switch kind {
			case waitDone:
				done++
			case waitRecv, waitColl:
				blocked++
			}
		}
		progress := w.progress.Load()
		stuck := blocked > 0 && blocked+done == w.size &&
			progress == prevProgress && havePrev && sameWaits(cur, prev)
		if stuck {
			strikes++
		} else {
			strikes = 0
		}
		prev, cur = cur, prev
		havePrev = true
		prevProgress = progress
		if strikes < 4 {
			continue
		}
		// A full window elapsed with the world frozen: dump and abort.
		dl := &DeadlockError{Window: window, Ranks: make([]RankWait, w.size)}
		first := -1
		firstPhase := ""
		for i := range w.ranks {
			wr := &w.ranks[i].wait
			rw := RankWait{
				Rank:  i,
				Phase: wr.phaseStr(),
				Clock: wr.clockVal(),
				State: wr.describe(),
				Done:  wr.kind.Load() == waitDone,
			}
			if !rw.Done && first < 0 {
				first = i
				firstPhase = rw.Phase
			}
			dl.Ranks[i] = rw
		}
		re := &RankError{Rank: first, Phase: firstPhase, Err: dl}
		// Re-check right before aborting: a real rank failure may have
		// poisoned the world between our sample and now, leaving stale
		// wait records from the dying generation. The genuine RankError
		// must win over a spurious deadlock dump built from them.
		if w.aborted.Load() {
			return
		}
		w.abort(re)
		return
	}
}

func sameWaits(a, b []waitSnap) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
