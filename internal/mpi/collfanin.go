package mpi

import (
	"sync"
	"sync/atomic"

	"repro/internal/hostpar"
)

// The fan-in collective engine.
//
// A rendezvous that serializes every rank through one mutex and a
// sync.Cond broadcast, boxing each AllReduce contribution through
// `any`, pays O(P) lock handoffs and O(P) allocations per collective,
// which at P = 1024 made the rendezvous itself the gate on the scale-8
// sweep. The fan-in engine uses generation-stamped arrival slots
// instead:
//
//   - Each rank owns slots[rank] and writes its contribution (clock,
//     declared cost, and either an inline [4]uint64 word payload or a
//     boxed value) before announcing arrival with one atomic add. The
//     add's happens-before chain makes every slot visible to the last
//     arriver without any lock.
//   - The last arriver is the finisher: it scans the slots for the
//     clock/cost maxima (hostpar-chunked at large P — exact, since
//     float max is associative), folds the contributions in rank-index
//     order (never chunked: bit-identity requires the rank-order
//     fold), publishes the result, bumps the generation counter, and
//     broadcasts the rendezvous cond once.
//   - Waiters park on the cond and re-check the generation; the
//     rendezvous mutex guards only the park/wake handshake — never the
//     contribution slots, the combine, or any allocation. An abort
//     broadcasts the cond so parked waiters wake, observe the abort,
//     and tear down (see World.abort).
//
// Steady-state cost per collective is O(P) total work and zero
// allocations; arrival itself takes no lock. Result slots are safe to
// overwrite only when the next generation completes, which requires
// every rank — including the slowest reader of the previous result —
// to arrive again first, so no reader can observe a torn result.
//
// Virtual clocks, traffic and event counts up to P = 1024 are pinned by
// TestCollectiveClocksGolden, recorded while a mutex+cond engine was
// still in the tree and agreed with this one bit for bit.

// collSlot is one rank's contribution to the current generation. The
// owning rank writes it before its arrival add; only the finisher reads
// it, after observing the full arrival count.
type collSlot struct {
	clock float64
	cost  float64
	w     [4]uint64 // inline payload of the word path (unused when boxed)
	val   any       // boxed payload of the general path (nil on the word path)
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

	slots    []collSlot
	valsView []any // finisher-only scratch: boxed contributions in rank order

	// Results of the latest completed generation; written by the
	// finisher before the gen bump, read by waiters after observing it.
	resVal any
	resW   [4]uint64
	done   float64

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
		size:     size,
		slots:    make([]collSlot, size),
		valsView: make([]any, size),
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
// communicators scan in hostpar chunks; small ones stay serial.
func (coll *faninColl) scanMax() (mx, mc float64) {
	slots := coll.slots
	n := len(slots)
	if wk := hostpar.Workers(); wk > 1 && n >= faninChunkMin {
		chunks := wk
		if chunks > maxFaninChunks {
			chunks = maxFaninChunks
		}
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

// faninBoxed is the general fan-in path: contributions box through
// `any` and combine runs once, in rank-index order, on the finisher.
func (c *Comm) faninBoxed(op *string, val any, combine func(vals []any) any, cost collCost, t0 float64) any {
	coll := c.world.faninFor(c.size)
	st := c.state
	slot := &coll.slots[c.rank]
	slot.clock = st.clock
	slot.cost = cost.total
	slot.val = val
	myGen, finisher := c.faninArrive(coll)
	if finisher {
		mx, mc := coll.scanMax()
		vals := coll.valsView
		for i := range coll.slots {
			vals[i] = coll.slots[i].val
			coll.slots[i].val = nil
		}
		// combine is user code and may panic (e.g. on a truncated
		// contribution); the panic propagates to this rank's teardown,
		// which aborts the world and wakes the parked peers via abortCh —
		// the generation is never published.
		res, perr := safeCombine(combine, vals)
		if perr != nil {
			panic(perr)
		}
		coll.resVal = res
		coll.done = mx + mc
		c.faninComplete(coll)
	} else {
		c.faninWait(coll, op, myGen)
	}
	res, done := coll.resVal, coll.done
	c.collCharge(op, myGen, cost, t0, done)
	return res
}

// faninWords is the allocation-free fan-in path for fixed-size payloads
// (float64, int64, int, Vec2, [3]float64 and friends encoded into at
// most four words). fold is applied in rank-index order by the finisher
// — the exact combine order of the boxed path — so results are
// bit-identical to running the same operator through `any`. Callers
// guarantee the world has no fault plan (payload truncation is only
// defined on boxed contributions) and the fan-in engine is active.
func (c *Comm) faninWords(op *string, w [4]uint64, fold func(acc, v [4]uint64) [4]uint64, cost collCost) [4]uint64 {
	c.commEvent(op)
	st := c.state
	t0 := st.clock
	if c.size == 1 {
		st.clock += cost.total
		st.commTime += cost.total
		if st.tr != nil {
			st.tr.Coll(*op, 1, -1, cost.bytes, cost.ts, cost.tw, cost.to,
				t0, st.clock, cost.total)
		}
		return w
	}
	coll := c.world.faninFor(c.size)
	slot := &coll.slots[c.rank]
	slot.clock = st.clock
	slot.cost = cost.total
	slot.w = w
	myGen, finisher := c.faninArrive(coll)
	if finisher {
		mx, mc := coll.scanMax()
		acc := coll.slots[0].w
		for i := 1; i < coll.size; i++ {
			acc = fold(acc, coll.slots[i].w)
		}
		coll.resW = acc
		coll.done = mx + mc
		c.faninComplete(coll)
	} else {
		c.faninWait(coll, op, myGen)
	}
	res, done := coll.resW, coll.done
	c.collCharge(op, myGen, cost, t0, done)
	return res
}
