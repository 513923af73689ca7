// Package mpi implements the custom message-passing layer this
// reproduction uses in place of MPI. A World runs P simulated ranks,
// each on its own goroutine, communicating through point-to-point
// messages and MPI-style collectives (Barrier, Bcast, AllReduce,
// AllGatherWith, AllToAllV) over prefix sub-communicators.
//
// Alongside the real data movement, every rank carries a virtual clock
// charged with a LogP-style cost model: local computation costs
// PerOp seconds per charged operation, a point-to-point message costs
// Latency + PerByte·bytes, and collectives cost their standard
// tree/ring formulas. Collectives also synchronise virtual clocks to
// the participating maximum, so the final per-rank clock is exactly the
// bulk-synchronous execution time of the algorithm on a P-processor
// machine with those machine constants — the quantity Section 3.1 of
// the paper analyses. Reported "execution times" throughout the
// benchmark harness are maxima of these clocks, not wall time, which is
// how a 1024-rank sweep runs on a laptop while preserving the paper's
// scalability shapes.
//
// Determinism: messages are matched by explicit source, reductions
// combine contributions in rank order, and no rank ever waits on "any
// source", so clocks and algorithm outputs are independent of the Go
// scheduler.
//
// Host scaling: the hot paths are O(P) total, not O(P²). Per-rank state
// lives in slab-backed arenas (one rankState slice, one Comm slice, one
// mailbox slab), point-to-point delivery uses growable message rings
// with O(1) dequeue instead of per-receiver channels with O(P) buffers,
// and collectives rendezvous through generation-stamped arrival slots
// combined once by the last arriver (see collfanin.go). All of it is
// host-side only: modeled clocks, combine order, and traffic are
// bit-identical across worker counts and host schedules, and
// testdata/collective_clocks.golden pins the collective clocks.
//
// Failure semantics: the runtime is a failure domain, not just a
// simulator. A rank that panics (or is killed by an injected fault, see
// FaultPlan) poisons the world: every other rank blocked in a receive
// or collective is woken and torn down, and RunChecked returns a
// structured RankError instead of hanging or re-panicking. A stall with
// every live rank blocked and no progress (a genuine deadlock: a
// receive with no matching send, a collective a dead rank will never
// join) is detected by a watchdog (Model.Watchdog) that aborts the
// world with a per-rank diagnostic dump.
package mpi

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// Model holds the machine constants of the simulated cluster.
type Model struct {
	Latency float64 // ts: seconds per message / per collective hop
	PerByte float64 // tw: seconds per byte of message payload
	PerOp   float64 // seconds per charged unit of local computation
	// PerPeer is the per-destination posting/packing overhead of an
	// irregular vector exchange (MPI_Alltoallv-style), the "o·P" term
	// of LogGP-like models: every such exchange costs PerPeer·P on top
	// of latency and bandwidth. This term is what makes multilevel
	// partitioners with per-level irregular exchanges degrade once
	// N/P gets small.
	PerPeer float64

	// Watchdog is the real-time stall window of the deadlock watchdog:
	// when every live rank stays blocked on the same operation with no
	// progress anywhere for this long, the world is aborted with a
	// DeadlockError. Zero selects DefaultWatchdogWindow; a negative
	// value disables the watchdog. The watchdog never touches virtual
	// clocks.
	Watchdog time.Duration
	// Faults optionally injects deterministic failures into the run;
	// nil (the default) runs fault-free. See FaultPlan.
	Faults *FaultPlan
	// Reliable optionally enables the self-healing messaging layer:
	// point-to-point sends carry per-link sequence numbers and dropped
	// or badly delayed messages are healed by deterministic
	// retransmission with bounded exponential backoff instead of
	// deadlocking into the watchdog. See Reliability. With zero faults
	// firing the layer never touches clocks, so results stay
	// bit-identical to an unreliable run.
	Reliable *Reliability
	// Trace optionally records structured per-rank events (sends,
	// receives, collectives and replayed charges with the ts/tw/to
	// terms of their Cost, phase spans, faults) into the given
	// recorder. Tracing is passive: clocks are charged each Cost's
	// total whether or not a recorder is attached, so a traced run is
	// bit-identical to an untraced one. Use one Recorder per run.
	Trace *trace.Recorder
	// Workers is the host width of the run: the most chunks a
	// host-parallel kernel inside the world forks into (Comm.Workers).
	// Zero means one per core, GOMAXPROCS when the world starts; a
	// negative width is invalid. The width changes host wall time only,
	// never a result or a clock.
	Workers int
}

// DefaultModel returns constants representative of the paper's testbed
// (2.66 GHz Nehalem nodes on QDR InfiniBand): ~2 µs MPI latency,
// ~3 GB/s effective bandwidth, and ~1.5 ns per charged graph operation
// (a charged operation is an edge traversal with a handful of floating
// point operations, not a single instruction).
func DefaultModel() Model {
	return Model{
		Latency: 2.0e-6,
		PerByte: 0.33e-9,
		PerOp:   1.5e-9,
		PerPeer: 0.2e-6,
	}
}

// OrDefault returns m, or DefaultModel at m's host width when m sets
// nothing but Workers: the entry points read a zero model as the
// default machine, and choosing a width does not make it another one.
func (m Model) OrDefault() Model {
	if m != (Model{Workers: m.Workers}) {
		return m
	}
	d := DefaultModel()
	d.Workers = m.Workers
	return d
}

// ResolvedWorkers is the host width a world of this model runs at:
// Workers, or GOMAXPROCS when Workers is zero.
func (m *Model) ResolvedWorkers() int {
	if m.Workers > 0 {
		return m.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RankStats is the per-rank outcome of a World run.
type RankStats struct {
	Rank      int
	Time      float64 // final virtual clock, seconds
	CommTime  float64 // portion of Time spent in (or waiting on) communication
	BytesSent int64   // payload bytes this rank sent point-to-point
	Messages  int64   // point-to-point messages this rank sent
	Events    int64   // communication events started (fault-plan positions passed)
}

// MaxTime returns the largest virtual clock across ranks — the modeled
// parallel execution time.
func MaxTime(stats []RankStats) float64 {
	mx := 0.0
	for _, s := range stats {
		if s.Time > mx {
			mx = s.Time
		}
	}
	return mx
}

// MaxCommTime returns the largest per-rank communication time.
func MaxCommTime(stats []RankStats) float64 {
	mx := 0.0
	for _, s := range stats {
		if s.CommTime > mx {
			mx = s.CommTime
		}
	}
	return mx
}

type message struct {
	src     int
	seq     int64 // per-link sequence number (-1 when Model.Reliable is nil)
	data    any
	arrival float64 // virtual time at which the payload is available
	cost    float64 // modeled transfer cost (Latency + PerByte·bytes, plus healed backoff)
	bytes   int64   // modeled payload size (trace/invariant bookkeeping)
}

// Interned operation names: blocking paths publish the op to the
// watchdog through an atomic pointer, and a package-level *string makes
// that publication allocation-free.
func internOp(s string) *string { return &s }

var (
	opSend             = internOp("Send")
	opRecv             = internOp("Recv")
	opSendVec          = internOp("SendVec")
	opRecvVec          = internOp("RecvVec")
	opNeighborExchange = internOp("NeighborExchange")
	opBarrier          = internOp("Barrier")
	opBcast            = internOp("Bcast")
	opSyncCost         = internOp("SyncCost")
	opAllReduce        = internOp("AllReduce")
	opAllReduceSlice   = internOp("AllReduceSlice")
	opAllGather        = internOp("AllGather")
	opAllGatherV       = internOp("AllGatherV")
	opAllToAllV        = internOp("AllToAllV")
	opAllToAllVCounts  = internOp("AllToAllV.counts")
	phaseRestore       = internOp("restore")
)

// rankState is the per-rank mutable state shared by all Comms of that
// rank (full communicator and sub-communicators alike). All rankStates
// of a world live in one slab (World.ranks), and their initial mailbox
// rings are carved from a second slab, so spinning up P ranks costs a
// handful of arena allocations instead of O(P) heap graphs of small
// objects. Point-to-point delivery uses one mailbox ring per receiver
// (not one channel per rank pair, nor an O(P)-buffered channel per
// rank, both quadratic in P); messages are matched to explicit sources
// through the pending rings, which only the owning goroutine touches.
type rankState struct {
	clock     float64
	commTime  float64
	bytesSent int64
	messages  int64

	box     mailbox          // incoming messages, appended by senders
	wake    chan struct{}    // cap-1 token: "something you may wait on changed"
	pending map[int]*msgRing // per-source out-of-order queues; owner-only, lazy

	events int64  // communication events so far (fault-plan positions)
	phase  string // set via Comm.SetPhase; read only by the owning goroutine
	wait   waitRec

	// Per-link sequence counters of the reliability layer, carved from
	// one slab only when Model.Reliable is set: seqTo[r] numbers the next
	// send to rank r, seqFrom[r] the next expected receive from rank r.
	// Pure bookkeeping — never charged to clocks.
	seqTo   []int64
	seqFrom []int64

	tr *trace.RankTrace // nil unless Model.Trace is set; owning goroutine only
}

// World is a group of simulated ranks. Create one per parallel run via
// Run or RunChecked.
type World struct {
	size    int
	model   Model
	workers int // Model.ResolvedWorkers, fixed at start

	// transposeCounts is the count exchange's combine bound to the
	// world's width, built once so that AllToAllV allocates no closure.
	transposeCounts func(rows [][]int32) []int32

	collMu    sync.Mutex
	fcolls    map[int]*faninColl // fan-in rendezvous for sub-communicator sizes
	worldColl *faninColl         // fan-in rendezvous for the full communicator

	ranks []rankState // the rank arena: one slab, indexed by rank
	comms []Comm      // the Comm arena: one slab, indexed by rank

	abortCh   chan struct{}
	abortOnce sync.Once
	aborted   atomic.Bool
	abortErr  atomic.Pointer[RankError]
	progress  atomic.Int64 // bumps whenever any rank completes a blocking op
}

// rankPtr returns the rank's state in the arena.
func (w *World) rankPtr(r int) *rankState { return &w.ranks[r] }

// Run executes body on p simulated ranks and returns their stats in
// rank order. body must communicate only through the provided Comm.
// Any failure — a rank panic, an injected fault, a watchdog-detected
// deadlock — is re-raised as a panic in the caller after all goroutines
// stop, so a failing algorithm fails the test that drives it. Drivers
// that want to survive failures use RunChecked instead.
func Run(p int, model Model, body func(*Comm)) []RankStats {
	stats, err := RunChecked(p, model, body)
	if err != nil {
		panic(fmt.Sprintf("mpi: %v", err))
	}
	return stats
}

// CheckRun is the one check of a run's shape: a world size below one
// or a negative Model.Workers is an error. Entry points that take p and
// a model return it, wrapped in their own prefix, before doing any
// work; RunChecked panics on it.
func CheckRun(p int, model Model) error {
	if p < 1 {
		return fmt.Errorf("world size p=%d, want at least 1", p)
	}
	if model.Workers < 0 {
		return fmt.Errorf("host width Model.Workers=%d, want at least 0", model.Workers)
	}
	return nil
}

// RunChecked executes body on p simulated ranks and returns their stats
// in rank order. Unlike Run it never panics on rank failure and never
// hangs: a panicking rank is converted into a poison message that
// unblocks every other rank (receives and in-flight collectives), all
// goroutines are joined, and the failure comes back as a *RankError
// identifying the rank, its phase (Comm.SetPhase), and the cause. A
// stalled world (every live rank blocked, no progress for
// Model.Watchdog) is aborted by the watchdog with a *DeadlockError
// wrapped in the returned *RankError. The returned stats are the
// clocks at teardown — complete for fault-free runs, partial otherwise.
func RunChecked(p int, model Model, body func(*Comm)) ([]RankStats, error) {
	if err := CheckRun(p, model); err != nil {
		panic("mpi: Run: " + err.Error())
	}
	w := &World{
		size:      p,
		model:     model,
		workers:   model.ResolvedWorkers(),
		abortCh:   make(chan struct{}),
		worldColl: newFaninColl(p),
	}
	w.transposeCounts = func(rows [][]int32) []int32 { return transposeCounts(w.workers, rows) }
	var traces []*trace.RankTrace
	if model.Trace != nil {
		traces = model.Trace.Attach(p)
	}
	// The rank arena: every per-rank object that scales with P comes out
	// of a world-wide slab — the rankStates themselves, their Comms,
	// their initial mailbox rings, and (when reliable) the per-link
	// sequence counters. Only the cap-1 wake channels remain individual
	// allocations, O(P) total.
	w.ranks = make([]rankState, p)
	w.comms = make([]Comm, p)
	ringSlab := make([]message, p*mailboxSlabCap)
	var seqSlab []int64
	if model.Reliable != nil {
		seqSlab = make([]int64, 2*p*p)
	}
	for i := range w.ranks {
		st := &w.ranks[i]
		st.box.q.buf = ringSlab[i*mailboxSlabCap : (i+1)*mailboxSlabCap : (i+1)*mailboxSlabCap]
		st.wake = make(chan struct{}, 1)
		if seqSlab != nil {
			st.seqTo = seqSlab[2*i*p : (2*i+1)*p : (2*i+1)*p]
			st.seqFrom = seqSlab[(2*i+1)*p : (2*i+2)*p : (2*i+2)*p]
		}
		if traces != nil {
			st.tr = traces[i]
		}
		w.comms[i] = Comm{world: w, rank: i, size: p, state: st}
	}
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			comm := &w.comms[rank]
			st := comm.state
			defer wg.Done()
			defer func() {
				e := recover()
				st.wait.publish(waitDone, nil, 0, 0, 0, st.clock)
				w.progress.Add(1)
				if st.tr != nil {
					st.tr.Finish(st.clock, st.commTime, st.bytesSent)
				}
				if e == nil {
					return
				}
				if _, poisoned := e.(abortSignal); poisoned {
					return // torn down by another rank's abort
				}
				err, ok := e.(error)
				if !ok {
					err = fmt.Errorf("panic: %v", e)
				}
				w.abort(&RankError{Rank: rank, Phase: st.phase, Err: err})
			}()
			body(comm)
		}(r)
	}
	window := model.Watchdog
	if window == 0 {
		window = DefaultWatchdogWindow
	}
	var stopWatchdog chan struct{}
	if window > 0 {
		stopWatchdog = make(chan struct{})
		go w.watchdog(window, stopWatchdog)
	}
	wg.Wait()
	if stopWatchdog != nil {
		close(stopWatchdog)
	}
	// A faulted teardown can strand in-flight pooled payloads in
	// mailboxes and pending rings; return them to their pools so long
	// fault sweeps keep the pooling ledger balanced (see poolBalance).
	// All goroutines are joined, so the rings need no locks here.
	for i := range w.ranks {
		st := &w.ranks[i]
		for {
			m, ok := st.box.q.pop()
			if !ok {
				break
			}
			releasePayload(m.data)
		}
		for _, q := range st.pending {
			for {
				m, ok := q.pop()
				if !ok {
					break
				}
				releasePayload(m.data)
			}
		}
	}
	stats := make([]RankStats, p)
	for r := range w.ranks {
		st := &w.ranks[r]
		stats[r] = RankStats{
			Rank:      r,
			Time:      st.clock,
			CommTime:  st.commTime,
			BytesSent: st.bytesSent,
			Messages:  st.messages,
			Events:    st.events,
		}
	}
	if err := w.abortErr.Load(); err != nil {
		return stats, err
	}
	return stats, nil
}

// abort poisons the world exactly once: the error is recorded, the
// abort channel unblocks every rank parked in a receive or collective
// select, and every rendezvous is broadcast so cond-waiters wake,
// observe the abort, and tear down. Must not be called while holding a
// collective's mutex.
func (w *World) abort(err *RankError) {
	w.abortOnce.Do(func() {
		w.abortErr.Store(err)
		w.aborted.Store(true)
		close(w.abortCh)
		w.collMu.Lock()
		fcolls := make([]*faninColl, 0, len(w.fcolls)+1)
		fcolls = append(fcolls, w.worldColl)
		for _, fc := range w.fcolls {
			fcolls = append(fcolls, fc)
		}
		w.collMu.Unlock()
		for _, fc := range fcolls {
			fc.mu.Lock()
			fc.cond.Broadcast()
			fc.mu.Unlock()
		}
	})
}

// Comm is one rank's handle on a communicator. The zero value is not
// usable; Comms are produced by Run and SubComm.
type Comm struct {
	world *World
	rank  int // world rank (== communicator rank: subcomms are prefixes)
	size  int
	state *rankState
}

// Rank returns this rank's id within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return c.size }

// Model returns the machine constants of the world.
func (c *Comm) Model() Model { return c.world.model }

// Workers returns the host width of the run, Model.ResolvedWorkers
// when the world started. Every host-parallel kernel inside the world
// forks into at most this many chunks.
func (c *Comm) Workers() int { return c.world.workers }

// Elapsed returns this rank's current virtual clock in seconds.
func (c *Comm) Elapsed() float64 { return c.state.clock }

// CommElapsed returns the communication portion of the virtual clock.
func (c *Comm) CommElapsed() float64 { return c.state.commTime }

// RankSnapshot is a restorable capture of one rank's runtime counters —
// virtual clock, communication time, traffic totals, and the
// communication-event cursor that fault plans address. Together with
// the algorithm-level state a driver checkpoints alongside it (coarse
// graph handle, embedding coordinates, RNG seeds are part of Options),
// it is everything needed to re-enter the pipeline at a level boundary.
type RankSnapshot struct {
	Clock     float64
	CommTime  float64
	BytesSent int64
	Messages  int64
	Events    int64
}

// Snapshot captures this rank's runtime counters at a consistency point
// (a level or phase boundary, after a synchronising collective).
func (c *Comm) Snapshot() RankSnapshot {
	st := c.state
	return RankSnapshot{
		Clock:     st.clock,
		CommTime:  st.commTime,
		BytesSent: st.bytesSent,
		Messages:  st.messages,
		Events:    st.events,
	}
}

// Restore rewinds this rank's runtime counters to a snapshot taken in a
// previous (failed) world, the rollback half of checkpoint/restart
// recovery. It must be called before the rank's first communication in
// the new world. When tracing, the jump from clock 0 to the snapshot
// clock is recorded as a "restore" phase span plus a restore marker, so
// breakdown phase spans still tile the timeline exactly.
func (c *Comm) Restore(s RankSnapshot) {
	st := c.state
	if st.tr != nil {
		st.tr.PhaseChange("restore", st.clock, st.commTime, st.bytesSent)
	}
	st.clock = s.Clock
	st.commTime = s.CommTime
	st.bytesSent = s.BytesSent
	st.messages = s.Messages
	st.events = s.Events
	st.phase = "restore"
	st.wait.phase.Store(phaseRestore)
	if st.tr != nil {
		st.tr.RestoreMark(s.Clock, s.Events)
	}
}

// SetPhase labels the algorithm phase this rank is in ("coarsen",
// "embed", "partition", ...). The label is attached to RankErrors and
// watchdog diagnostics, and — when tracing — opens a new phase span at
// the current clock; it has no effect on clocks or semantics.
func (c *Comm) SetPhase(name string) {
	st := c.state
	if st.tr != nil && name != st.phase {
		st.tr.PhaseChange(name, st.clock, st.commTime, st.bytesSent)
	}
	st.phase = name
	st.wait.phase.Store(&name)
}

// Phase returns the current phase label.
func (c *Comm) Phase() string { return c.state.phase }

// Events returns the number of communication events this rank has
// started (the positions a FaultPlan addresses).
func (c *Comm) Events() int64 { return c.state.events }

// Abort poisons the world with a structured error and terminates the
// calling rank: every other rank is unblocked and torn down, and the
// enclosing RunChecked returns a *RankError wrapping err. Abort does
// not return.
func (c *Comm) Abort(err error) {
	c.world.abort(&RankError{Rank: c.rank, Phase: c.state.phase, Err: err})
	panic(abortSignal{})
}

// commEvent starts a communication operation: it advances the event
// counter, raises a scheduled kill fault, and returns any other fault
// scheduled for this position. Pure bookkeeping — clocks are untouched,
// so fault-free ranks keep bit-identical timings.
func (c *Comm) commEvent(op *string) *Fault {
	ev := c.state.events
	c.state.events++
	f := c.world.model.Faults.at(c.rank, ev)
	if f != nil {
		if c.state.tr != nil {
			c.state.tr.Fault(f.Kind.String(), *op, ev, c.state.clock)
		}
		if f.Kind == KillRank {
			panic(&InjectedFault{Rank: c.rank, Event: ev})
		}
	}
	return f
}

// beginWait publishes what this rank is about to block on; endWait
// clears it and bumps the world progress counter. Both are
// allocation-free: the record is a set of per-rank atomics (see
// waitRec), not a freshly boxed snapshot.
func (c *Comm) beginWait(kind int32, op *string, peer, size int, gen int64) {
	c.state.wait.publish(kind, op, int32(peer), int32(size), gen, c.state.clock)
}

func (c *Comm) endWait() {
	c.state.wait.publish(waitRunning, nil, 0, 0, 0, c.state.clock)
	c.world.progress.Add(1)
}

// Charge advances the virtual clock by ops charged operations of local
// computation.
func (c *Comm) Charge(ops float64) {
	c.state.clock += ops * c.world.model.PerOp
}

// SubComm returns a communicator over the first n world ranks, or nil
// if this rank is not a member. Point-to-point operations always use
// world rank ids; SubComm only scopes collectives.
func (c *Comm) SubComm(n int) *Comm {
	if n < 1 || n > c.world.size {
		panic(fmt.Sprintf("mpi: SubComm(%d) of world size %d", n, c.world.size))
	}
	if c.rank >= n {
		return nil
	}
	return &Comm{world: c.world, rank: c.rank, size: n, state: c.state}
}

// Send delivers data to rank `to`. bytes is the modeled payload size.
// The payload is available to the receiver at sender-clock + Latency +
// PerByte·bytes; the sender itself is charged the send overhead
// (Latency). Send never blocks: the receiver's mailbox ring grows on
// demand (send-side backpressure was host scheduling with no modeled
// meaning).
func (c *Comm) Send(to int, data any, bytes int) {
	c.sendOp(to, data, bytes, opSend)
}

func (c *Comm) sendOp(to int, data any, bytes int, op *string) {
	if to == c.rank {
		panic("mpi: Send to self")
	}
	if to < 0 || to >= c.world.size {
		panic(fmt.Sprintf("mpi: Send to rank %d of world size %d", to, c.world.size))
	}
	f := c.commEvent(op)
	m := &c.world.model
	// Self-healing: with a reliability layer attached, wire faults on
	// this message are healed at the send site. The retransmission
	// protocol is not simulated turn by turn — its deterministic outcome
	// is: the receiver sees the payload arrive after the summed backoff
	// timeouts, and the sender is charged one extra Latency per
	// retransmission below (traced as a retry event).
	retries := 0
	backoff := 0.0
	if f != nil && m.Reliable != nil {
		switch f.Kind {
		case DropMessage:
			drops := f.Repeat
			if drops < 1 {
				drops = 1
			}
			if budget := m.Reliable.budget(); drops > budget {
				// Every retransmission within budget was dropped too: the
				// link is dead. Escalate to a rank failure so recovery
				// policies (respawn/shrink) can take over.
				releasePayload(data)
				panic(&RetryBudgetError{Rank: c.rank, To: to, Event: c.state.events - 1, Drops: drops, Budget: budget})
			}
			backoff = backoffTotal(m.Reliable.ackTimeout(m, bytes), drops)
			retries = drops
			f = nil
		case DelayMessage:
			if timeout := m.Reliable.ackTimeout(m, bytes); f.Delay > timeout {
				// The delayed copy misses the ack window: the sender times
				// out once and retransmits, and the fresh copy overtakes
				// the late original.
				backoff = timeout
				retries = 1
				f = nil
			}
		case TruncatePayload:
			// The payload checksum rejects the corrupted copy; the sender
			// times out once and retransmits intact.
			backoff = m.Reliable.ackTimeout(m, bytes)
			retries = 1
			f = nil
		}
	}
	cost := m.sendCost(bytes, backoff)
	arrival := c.state.clock + cost
	deliver := true
	if f != nil {
		switch f.Kind {
		case DropMessage:
			deliver = false
		case DelayMessage:
			arrival += f.Delay
			cost += f.Delay
		case TruncatePayload:
			data = truncatePayload(data)
		}
	}
	seq := int64(-1)
	if c.state.seqTo != nil {
		seq = c.state.seqTo[to]
		c.state.seqTo[to]++
	}
	if deliver {
		dst := c.world.rankPtr(to)
		dst.box.push(message{src: c.rank, seq: seq, data: data, arrival: arrival, cost: cost, bytes: int64(bytes)})
		select {
		case dst.wake <- struct{}{}:
		default:
		}
	} else {
		// A dropped pooled payload never reaches a receiver's Release;
		// return it to its pool here so fault sweeps stay balanced.
		releasePayload(data)
	}
	// A dropped message still charges the sender: the fault is on the
	// wire, and no other rank's clock may move because of it.
	t0 := c.state.clock
	c.state.clock += m.Latency
	c.state.commTime += m.Latency
	c.state.bytesSent += int64(bytes)
	c.state.messages++
	if c.state.tr != nil {
		c.state.tr.Send(*op, to, int64(bytes), t0, c.state.clock, m.Latency)
	}
	if retries > 0 {
		// Each healed retransmission charges the sender one more send
		// overhead (Latency); the backoff itself is the receiver's wait
		// and is already folded into the message's arrival and cost.
		extra := float64(retries) * m.Latency
		rt0 := c.state.clock
		c.state.clock += extra
		c.state.commTime += extra
		if c.state.tr != nil {
			c.state.tr.Retry(*op, to, retries, int64(bytes), rt0, c.state.clock)
		}
	}
}

// Recv blocks until a message from rank `from` is available and returns
// its payload, advancing the virtual clock to the message arrival time
// (or leaving it unchanged if the message already arrived in virtual
// time). If the world aborts while waiting, the rank is torn down.
func (c *Comm) Recv(from int) any {
	return c.recvOp(from, opRecv)
}

func (c *Comm) recvOp(from int, op *string) any {
	c.commEvent(op)
	st := c.state
	msg, ok := c.takePending(from)
	if !ok {
		// Fast path: drain whatever is already queued without blocking
		// (and so without publishing a wait record for the watchdog).
		msg, ok = c.drainMatch(from)
	}
	if !ok {
		c.beginWait(waitRecv, op, from, 0, 0)
		for !ok {
			select {
			case <-st.wake:
				msg, ok = c.drainMatch(from)
			case <-c.world.abortCh:
				// Clear the wait record before tearing down: a stale
				// snapshot would otherwise feed the watchdog a misleading
				// deadlock dump during abort.
				c.endWait()
				panic(abortSignal{})
			}
		}
		c.endWait()
	}
	if st.seqFrom != nil && msg.seq >= 0 {
		// The reliability layer numbers every link's messages; a gap here
		// would mean an undetected loss or reordering, which the healing
		// protocol is supposed to make impossible.
		if want := st.seqFrom[msg.src]; msg.seq != want {
			panic(fmt.Errorf("mpi: reliability: rank %d received message seq %d from rank %d, want %d (undetected loss or reordering)",
				c.rank, msg.seq, msg.src, want))
		}
		st.seqFrom[msg.src]++
	}
	t0 := st.clock
	advance := msg.arrival - st.clock
	if advance > 0 {
		st.clock = msg.arrival
	} else {
		advance = 0
	}
	// Communication time counts the transfer cost, capped by the actual
	// clock advance: waiting caused by load imbalance or late activation
	// is not communication.
	comm := msg.cost
	if advance < comm {
		comm = advance
	}
	st.commTime += comm
	if st.tr != nil {
		st.tr.Recv(*op, from, msg.bytes, t0, st.clock, comm)
	}
	return msg.data
}

// collCharge runs the shared back half of every collective: advance the
// clock to the rendezvous completion time, attribute the collective's
// own cost (not imbalance waiting) to communication time, and emit the
// trace span.
func (c *Comm) collCharge(op *string, myGen int64, cost Cost, t0, done float64) {
	st := c.state
	charged := 0.0
	if done > st.clock {
		advance := done - st.clock
		st.clock = done
		// Only the collective's own cost counts as communication; the
		// remainder of the advance is waiting on slower ranks (load
		// imbalance or late activation).
		comm := cost.total
		if advance < comm {
			comm = advance
		}
		st.commTime += comm
		charged = comm
	}
	if st.tr != nil {
		st.tr.Coll(*op, c.size, myGen, cost.bytes, cost.ts, cost.tw, cost.to,
			t0, st.clock, charged)
	}
}

// collSolo charges a collective on a one-rank communicator: there is
// no one to wait for, so the whole cost is communication.
func (c *Comm) collSolo(op *string, cost Cost, t0 float64) {
	st := c.state
	st.clock += cost.total
	st.commTime += cost.total
	if st.tr != nil {
		st.tr.Coll(*op, 1, -1, cost.bytes, cost.ts, cost.tw, cost.to,
			t0, st.clock, cost.total)
	}
}

// Barrier synchronises all ranks of the communicator; cost is a
// log2(P)-depth tree of latencies.
func (c *Comm) Barrier() {
	collective(c, opBarrier, struct{}{}, c.world.model.treeCost(c.size, 0), noPayload)
}

// noPayload is the combine of the collectives without payload, Barrier
// and SyncCost.
func noPayload([]struct{}) struct{} { return struct{}{} }

// Bcast distributes root's data to every rank. bytes is the payload
// size; cost is a binomial tree: (Latency + PerByte·bytes)·log2(P).
func (c *Comm) Bcast(root int, data any, bytes int) any {
	if root < 0 || root >= c.size {
		panic("mpi: Bcast root out of range")
	}
	return collective(c, opBcast, data, c.world.model.treeCost(c.size, bytes),
		func(vals []any) any { return vals[root] })
}

// phaseMarker supports PhaseTimer.
type PhaseTimer struct {
	c     *Comm
	t0    float64
	comm0 float64
}

// StartPhase snapshots the virtual clock so algorithms can attribute
// time to named phases (coarsening, embedding, partitioning, ...).
func (c *Comm) StartPhase() PhaseTimer {
	return PhaseTimer{c: c, t0: c.state.clock, comm0: c.state.commTime}
}

// Stop returns the total and communication virtual time elapsed since
// StartPhase.
func (t PhaseTimer) Stop() (total, comm float64) {
	return t.c.state.clock - t.t0, t.c.state.commTime - t.comm0
}

// ChargeComm advances the virtual clock by a modeled point-to-point
// communication cost (messages·Latency + bytes·PerByte) without moving
// data. Drivers use it when replaying the cost of a communication whose
// data dependencies the simulation has already satisfied (e.g. the
// replicated-topology coarsening exchange).
func (c *Comm) ChargeComm(messages, bytes int) {
	cost := c.world.model.commCost(messages, bytes)
	st := c.state
	t0 := st.clock
	st.clock += cost.total
	st.commTime += cost.total
	if st.tr != nil {
		st.tr.Charge("ChargeComm", cost.bytes, cost.ts, cost.tw, t0, st.clock)
	}
}

// SyncCost synchronises the communicator like Barrier but charges the
// given cost instead of the barrier tree formula: every rank's clock
// advances to the slowest rank's plus the cost's total, and the trace
// attributes the charge by the cost's ts/tw/to terms. A Cost is only
// built from Hop, Peers, Flat, Times and Plus, so every charge carries
// its split.
func (c *Comm) SyncCost(cost Cost) {
	collective(c, opSyncCost, struct{}{}, cost, noPayload)
}
