package mpi

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/hostpar"
)

// The fan-in collective engine.
//
// A rendezvous that serializes every rank through one mutex and a
// sync.Cond broadcast, boxing each contribution through `any`, pays
// O(P) lock handoffs and O(P) allocations per collective, which at
// P = 1024 made the rendezvous itself the gate on the scale-8 sweep.
// The fan-in engine uses generation-stamped arrival slots and typed
// contribution slabs instead:
//
//   - Each rank writes its contribution into its index of a reusable
//     []T slab, which the rendezvous keeps per payload and result type,
//     and its clock, declared cost and loss flag into slots[rank]. It
//     then announces arrival with one atomic add. The add's
//     happens-before chain makes every slot and slab entry visible to
//     the last arriver without any lock.
//   - The last arriver is the finisher: it scans the slots for the
//     clock/cost maxima (hostpar-chunked at large P — exact, since
//     float max is associative), runs the combine over the slab in
//     rank-index order (never chunked: bit-identity requires the
//     rank-order fold), clears the slab, publishes the typed result in
//     the slab, bumps the generation counter, and broadcasts the
//     rendezvous cond once.
//   - Waiters park on the cond and re-check the generation; the
//     rendezvous mutex guards only the park/wake handshake — never the
//     contribution slots, the combine, or any allocation. An abort
//     broadcasts the cond so parked waiters wake, observe the abort,
//     and tear down (see World.abort).
//
// Steady-state cost per collective is O(P) total work and no
// allocation beyond what the combine itself makes; arrival takes no
// lock. A result is safe to overwrite only when the next generation of
// the same types completes, which requires every rank — including the
// slowest reader of the previous result — to arrive again first, so no
// reader can observe a torn result.
//
// Virtual clocks, traffic and event counts up to P = 1024 are pinned by
// TestCollectiveClocksGolden, recorded while a mutex+cond engine was
// still in the tree and agreed with this one bit for bit.

// collSlot is one rank's bookkeeping for the current generation. The
// owning rank writes it before its arrival add; only the finisher reads
// it, after observing the full arrival count.
type collSlot struct {
	clock  float64
	cost   float64
	lost   bool // a TruncatePayload fault destroyed the contribution
	halved bool // a TruncatePayload fault cut the contribution, a slice, to its first half
}

// collSlab holds one payload and result type's side of a rendezvous:
// every rank's contribution to the current generation, by rank, and
// the result of the latest completed generation of these types.
type collSlab[T, R any] struct {
	vals []T
	res  R
}

// faninColl is the fan-in rendezvous for one communicator size.
type faninColl struct {
	size    int
	arrived atomic.Int32
	gen     atomic.Int64 // completed generations

	// mu/cond implement only the waiters' park/wake handshake; arrival,
	// slot writes, and the combine never touch them.
	mu   sync.Mutex
	cond *sync.Cond

	slots []collSlot
	slabs sync.Map // reflect.Type of *collSlab[T, R] → *collSlab[T, R]

	// Completion time of the latest generation; written by the finisher
	// before the gen bump, read by waiters after observing it.
	done float64

	// Finisher-only scratch for hostpar-chunked max scans.
	chunkClock []float64
	chunkCost  []float64
}

// faninChunkMin is the communicator size below which the finisher's
// max scans stay serial; maxFaninChunks bounds the chunk scratch.
const (
	faninChunkMin  = 256
	maxFaninChunks = 32
)

func newFaninColl(size int) *faninColl {
	fc := &faninColl{
		size:  size,
		slots: make([]collSlot, size),
	}
	fc.cond = sync.NewCond(&fc.mu)
	if size >= faninChunkMin {
		fc.chunkClock = make([]float64, maxFaninChunks)
		fc.chunkCost = make([]float64, maxFaninChunks)
	}
	return fc
}

// faninFor returns the fan-in rendezvous for a communicator size. The
// full communicator — the hot case — is pre-allocated and hits no lock;
// sub-communicator sizes share a lazily filled map.
func (w *World) faninFor(size int) *faninColl {
	if size == w.size {
		return w.worldColl
	}
	w.collMu.Lock()
	if w.fcolls == nil {
		w.fcolls = make(map[int]*faninColl)
	}
	fc, ok := w.fcolls[size]
	if !ok {
		fc = newFaninColl(size)
		w.fcolls[size] = fc
	}
	w.collMu.Unlock()
	return fc
}

// faninArrive stamps this rank's slot bookkeeping and announces
// arrival. Returns the generation this arrival belongs to and whether
// this rank is the finisher. The generation load is safe before the
// add: generation g+1 cannot begin until every rank has returned from
// generation g, which this rank has not.
func (c *Comm) faninArrive(coll *faninColl) (myGen int64, finisher bool) {
	myGen = coll.gen.Load()
	finisher = int(coll.arrived.Add(1)) == coll.size
	return
}

// faninComplete publishes a finished generation: arrival count reset
// (safe before the gen bump — no rank can arrive for the next
// generation until it observes the bump), generation bump, and one
// cond broadcast. The broadcast must take mu so it cannot slip between
// a waiter's generation check and its park.
func (c *Comm) faninComplete(coll *faninColl) {
	coll.arrived.Store(0)
	coll.gen.Add(1)
	coll.mu.Lock()
	coll.cond.Broadcast()
	coll.mu.Unlock()
}

// faninWait parks until the generation advances past myGen, publishing
// the wait for the watchdog.
func (c *Comm) faninWait(coll *faninColl, op *string, myGen int64) {
	c.beginWait(waitColl, op, -1, coll.size, myGen)
	coll.mu.Lock()
	for coll.gen.Load() == myGen {
		if c.world.aborted.Load() {
			coll.mu.Unlock()
			// Clear the stale "blocked in collective gen N" record before
			// tearing down: the generation is dead and the watchdog must
			// not dump it as a deadlock.
			c.endWait()
			panic(abortSignal{})
		}
		coll.cond.Wait()
	}
	coll.mu.Unlock()
	c.endWait()
}

// scanMax returns the rank-maximum clock and declared cost of the
// current generation. Max is exact under any association, so large
// communicators scan in up to width hostpar chunks; small ones stay
// serial.
func (coll *faninColl) scanMax(width int) (mx, mc float64) {
	slots := coll.slots
	n := len(slots)
	if width > 1 && n >= faninChunkMin {
		chunks := min(width, maxFaninChunks)
		hostpar.ForN(n, chunks, func(ci, lo, hi int) {
			cm, cc := slots[lo].clock, slots[lo].cost
			for i := lo + 1; i < hi; i++ {
				if slots[i].clock > cm {
					cm = slots[i].clock
				}
				if slots[i].cost > cc {
					cc = slots[i].cost
				}
			}
			coll.chunkClock[ci], coll.chunkCost[ci] = cm, cc
		})
		mx, mc = coll.chunkClock[0], coll.chunkCost[0]
		for ci := 1; ci < chunks; ci++ {
			if coll.chunkClock[ci] > mx {
				mx = coll.chunkClock[ci]
			}
			if coll.chunkCost[ci] > mc {
				mc = coll.chunkCost[ci]
			}
		}
		return mx, mc
	}
	mx, mc = slots[0].clock, slots[0].cost
	for i := 1; i < n; i++ {
		if slots[i].clock > mx {
			mx = slots[i].clock
		}
		if slots[i].cost > mc {
			mc = slots[i].cost
		}
	}
	return mx, mc
}

// slabFor returns the rendezvous' slab for payload type T and result
// type R, creating it on the first collective of these types.
func slabFor[T, R any](coll *faninColl) *collSlab[T, R] {
	key := reflect.TypeFor[*collSlab[T, R]]()
	s, ok := coll.slabs.Load(key)
	if !ok {
		s, _ = coll.slabs.LoadOrStore(key, &collSlab[T, R]{vals: make([]T, coll.size)})
	}
	return s.(*collSlab[T, R])
}

// collective is the one rendezvous every collective runs: each rank of
// the communicator contributes val, combine runs once over the
// contributions in rank order on the rank that arrives last, every
// rank's clock advances to max(clock) + cost.total, and every rank
// receives combine's result. op names the collective in fault
// positions, watchdog diagnostics and the trace.
//
// combine's argument is the rendezvous' reused slab, cleared as soon
// as combine returns: a combine that hands the contributions on copies
// them. A contribution lost to a TruncatePayload fault fails its own
// rank, and so does a panic in combine while such a fault has halved a
// contribution (the lowest halved rank's); any other panic in combine
// fails the finishing rank. Each aborts the world.
func collective[T, R any](c *Comm, op *string, val T, cost Cost, combine func(vals []T) R) R {
	lost, halved := false, false
	if f := c.commEvent(op); f != nil && f.Kind == TruncatePayload && !c.healTruncation(op, cost) {
		val, lost, halved = truncateContribution(val)
	}
	st := c.state
	t0 := st.clock
	coll := c.world.faninFor(c.size)
	slab := slabFor[T, R](coll)
	slab.vals[c.rank] = val
	slot := &coll.slots[c.rank]
	slot.lost, slot.halved = lost, halved
	if c.size == 1 {
		c.collSolo(op, cost, t0)
		return slab.finish(c.world, coll, op, combine)
	}
	slot.clock = st.clock
	slot.cost = cost.total
	myGen, finisher := c.faninArrive(coll)
	if finisher {
		mx, mc := coll.scanMax(c.world.workers)
		slab.res = slab.finish(c.world, coll, op, combine)
		coll.done = mx + mc
		c.faninComplete(coll)
	} else {
		c.faninWait(coll, op, myGen)
	}
	res, done := slab.res, coll.done
	c.collCharge(op, myGen, cost, t0, done)
	return res
}

// finish runs on the finisher: it fails the collective if a
// contribution was lost, and otherwise combines the contributions in
// rank order. A loss is reported as the failure of the rank whose
// contribution it was, in that rank's phase, whichever rank happens to
// finish; so is a panic in combine while a contribution is halved,
// charged to the lowest halved rank. The slab is cleared either way, so
// it keeps no payload alive past its generation.
func (s *collSlab[T, R]) finish(w *World, coll *faninColl, op *string, combine func(vals []T) R) R {
	defer clear(s.vals)
	halved := -1
	for i := range coll.slots {
		if coll.slots[i].lost {
			w.abortRank(i, fmt.Errorf("mpi: %s lost the contribution of rank %d: truncated payload?", *op, i))
		}
		if halved < 0 && coll.slots[i].halved {
			halved = i
		}
	}
	if halved >= 0 {
		defer func() {
			if v := recover(); v != nil {
				if _, torn := v.(abortSignal); !torn {
					w.abortRank(halved, fmt.Errorf("mpi: %s failed on the halved contribution of rank %d (%v): truncated payload?", *op, halved, v))
				}
				panic(v)
			}
		}()
	}
	return combine(s.vals)
}

// abortRank aborts the world with err as the failure of the given rank,
// in that rank's phase, and tears the calling rank down.
func (w *World) abortRank(rank int, err error) {
	w.abort(&RankError{Rank: rank, Phase: w.ranks[rank].wait.phaseStr(), Err: err})
	panic(abortSignal{})
}

// healTruncation handles a TruncatePayload fault on a collective
// contribution under a reliability layer: the checksummed copy is
// rejected and retransmitted intact after one ack timeout. The late
// rank's clock enters the rendezvous max, so the whole collective
// absorbs the hiccup deterministically. Without a reliability layer it
// reports false and the contribution is truncated.
func (c *Comm) healTruncation(op *string, cost Cost) bool {
	m := &c.world.model
	if m.Reliable == nil {
		return false
	}
	timeout := m.Reliable.ackTimeout(m, int(cost.bytes))
	rt0 := c.state.clock
	c.state.clock += timeout
	c.state.commTime += timeout
	if c.state.tr != nil {
		c.state.tr.Retry(*op, -1, 1, cost.bytes, rt0, c.state.clock)
	}
	return true
}

// truncateContribution applies a TruncatePayload fault to a collective
// contribution: a slice keeps its first half, a contribution without
// payload (a Barrier's, or a nil Bcast argument) has nothing to lose,
// and any other value is lost. It reports whether the contribution was
// lost and whether it was halved.
func truncateContribution[T any](val T) (out T, lost, halved bool) {
	if any(val) == nil || reflect.TypeFor[T]().Size() == 0 {
		return val, false, false
	}
	out, halved = truncatePayload(val).(T)
	return out, !halved, halved
}
