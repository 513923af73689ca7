// Package trace is the observability layer of the simulated runtime: a
// per-rank recorder of structured communication events (point-to-point
// sends and receives, collectives with their cost split into the
// paper's ts/tw/to terms, replayed communication charges, injected
// faults) and named phase spans (coarsen/embed/geopart/refine, per
// hierarchy level).
//
// The recorder is wired into internal/mpi through Model.Trace. It is
// strictly passive: recording never touches virtual clocks, so a traced
// run produces bit-identical clocks, cuts, and traffic to an untraced
// one — the only difference is that the trace exists. With Model.Trace
// nil every hook is a single pointer comparison, so the disabled
// overhead is zero.
//
// Concurrency contract: each simulated rank appends only to its own
// event slice from its own goroutine, so recording needs no locks; the
// analysis entry points (Breakdown, ChromeTrace, CheckInvariants) must
// only be called after the run has completed.
package trace

import "sync"

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindPhase marks a phase transition (Comm.SetPhase): the clock,
	// communication time, and sent-byte counters at the boundary.
	KindPhase Kind = iota
	// KindSend is a point-to-point send (the sender's Latency charge).
	KindSend
	// KindRecv is a point-to-point receive (arrival-time advance).
	KindRecv
	// KindColl is one rank's participation in a collective.
	KindColl
	// KindCharge is a replayed communication charge (Comm.ChargeComm):
	// modeled cost without data movement.
	KindCharge
	// KindFault marks an injected fault firing at this rank and clock.
	KindFault
	// KindEnd closes a rank's timeline: the final clock at teardown.
	KindEnd
	// KindRetry is a reliability-layer retransmission burst healing a
	// dropped or badly delayed message: the sender's extra latency
	// charges. Gen carries the retransmission count; Bytes the
	// retransmitted payload volume. Deliberately not a KindSend — the
	// healed message is delivered exactly once, so byte-symmetry
	// invariants count it once.
	KindRetry
	// KindRestore marks a checkpoint restore: the rank's clock jumped to
	// the snapshot clock (Start) before re-entering the pipeline. Gen
	// carries the restored communication-event counter.
	KindRestore
)

// Event is one recorded runtime event. Start and End are virtual-clock
// snapshots before and after the operation; Comm is the portion of
// End-Start charged as communication (the remainder is waiting). TS,
// TW, and TO split the modeled communication cost into the paper's
// Section 3.1 terms: latency (ts), bandwidth (tw), and per-peer posting
// overhead (to). For collectives and replayed charges they are the
// terms of the mpi.Cost the clock was charged with, recorded after the
// charge and never charged themselves. They sum to the cost's total
// exactly for one-hop and flat costs, and may differ from it by
// rounding for tree collectives and composed replays (see mpi.Cost).
type Event struct {
	Kind  Kind
	Op    string // "Send", "AllReduce", phase name for KindPhase, fault kind for KindFault
	Peer  int    // partner rank for point-to-point events, -1 otherwise
	Size  int    // communicator size for collectives
	Gen   int64  // collective generation (-1 for single-rank collectives)
	Bytes int64  // modeled payload bytes
	Start float64
	End   float64
	Comm  float64
	TS    float64
	TW    float64
	TO    float64
}

// RankTrace is one rank's event log. All append methods are called only
// by the owning rank goroutine.
type RankTrace struct {
	rank   int
	events []Event
}

// Rank returns the world rank this log belongs to.
func (rt *RankTrace) Rank() int { return rt.rank }

// Events returns the recorded events in program order. Read-only; call
// after the run completes.
func (rt *RankTrace) Events() []Event { return rt.events }

// PhaseChange records a phase transition at the given clock.
func (rt *RankTrace) PhaseChange(name string, clock, commTime float64, bytesSent int64) {
	rt.events = append(rt.events, Event{
		Kind: KindPhase, Op: name, Peer: -1,
		Start: clock, End: clock, Comm: commTime, Bytes: bytesSent,
	})
}

// Finish closes the rank's timeline at teardown.
func (rt *RankTrace) Finish(clock, commTime float64, bytesSent int64) {
	rt.events = append(rt.events, Event{
		Kind: KindEnd, Peer: -1,
		Start: clock, End: clock, Comm: commTime, Bytes: bytesSent,
	})
}

// Send records a point-to-point send of `bytes` payload bytes to peer.
func (rt *RankTrace) Send(op string, peer int, bytes int64, start, end, comm float64) {
	rt.events = append(rt.events, Event{
		Kind: KindSend, Op: op, Peer: peer, Bytes: bytes,
		Start: start, End: end, Comm: comm, TS: comm,
	})
}

// Recv records a point-to-point receive from peer.
func (rt *RankTrace) Recv(op string, peer int, bytes int64, start, end, comm float64) {
	rt.events = append(rt.events, Event{
		Kind: KindRecv, Op: op, Peer: peer, Bytes: bytes,
		Start: start, End: end, Comm: comm, TW: comm,
	})
}

// Coll records one participation in a collective over `size` ranks at
// generation gen, with the charged communication and its ts/tw/to
// split.
func (rt *RankTrace) Coll(op string, size int, gen, bytes int64, ts, tw, to, start, end, comm float64) {
	rt.events = append(rt.events, Event{
		Kind: KindColl, Op: op, Peer: -1, Size: size, Gen: gen, Bytes: bytes,
		Start: start, End: end, Comm: comm, TS: ts, TW: tw, TO: to,
	})
}

// Charge records a replayed communication charge (no data moved).
func (rt *RankTrace) Charge(op string, bytes int64, ts, tw, start, end float64) {
	rt.events = append(rt.events, Event{
		Kind: KindCharge, Op: op, Peer: -1, Bytes: bytes,
		Start: start, End: end, Comm: end - start, TS: ts, TW: tw,
	})
}

// Retry records a reliability-layer retransmission burst: `attempts`
// resends of a bytes-sized message to peer, whose send overhead was
// charged to this rank over [start, end]. The receiver-side backoff is
// not recorded here — it is folded into the arrival of the healed
// message and shows up in the matching Recv.
func (rt *RankTrace) Retry(op string, peer int, attempts int, bytes int64, start, end float64) {
	rt.events = append(rt.events, Event{
		Kind: KindRetry, Op: op, Peer: peer, Gen: int64(attempts),
		Bytes: int64(attempts) * bytes,
		Start: start, End: end, Comm: end - start, TS: end - start,
	})
}

// RestoreMark records a checkpoint restore: the rank's counters jumped
// to the snapshot clock and communication-event cursor.
func (rt *RankTrace) RestoreMark(clock float64, events int64) {
	rt.events = append(rt.events, Event{
		Kind: KindRestore, Op: "restore", Peer: -1, Gen: events,
		Start: clock, End: clock,
	})
}

// Fault records an injected fault firing at this rank: kind names the
// fault, op the communication operation it fired inside, event the
// rank's communication-event index.
func (rt *RankTrace) Fault(kind, op string, event int64, clock float64) {
	rt.events = append(rt.events, Event{
		Kind: KindFault, Op: kind + ":" + op, Peer: -1, Gen: event,
		Start: clock, End: clock,
	})
}

// Recorder collects the per-rank traces of exactly one World run.
// Create one per run, attach it via mpi.Model.Trace, and analyse it
// after the run returns.
type Recorder struct {
	mu       sync.Mutex
	attached bool
	ranks    []*RankTrace
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Attach binds the recorder to a world of p ranks and returns the
// per-rank logs in rank order. A recorder records exactly one run;
// attaching twice panics, because interleaving two worlds' events would
// corrupt every analysis.
func (r *Recorder) Attach(p int) []*RankTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.attached {
		panic("trace: Recorder attached to a second run; use one Recorder per run")
	}
	r.attached = true
	r.ranks = make([]*RankTrace, p)
	for i := range r.ranks {
		r.ranks[i] = &RankTrace{rank: i}
	}
	return r.ranks
}

// Reset returns the recorder to its unattached state, discarding any
// recorded events. Recovery drivers use it to reuse one user-provided
// recorder across restart attempts: only the final (successful)
// attempt's trace survives; failed attempts are summarised in the
// driver's recovery stats instead.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attached = false
	r.ranks = nil
}

// Ranks returns the per-rank logs (nil before Attach).
func (r *Recorder) Ranks() []*RankTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ranks
}
