// Package hostpar is the shared host-side fork-join substrate: a
// reusable worker pool with statically chunked parallel-for loops.
//
// It parallelises the *real* computation a simulation host performs
// (coarsening, CSR assembly, boundary scans) and is therefore required
// to be invisible to the paper's model: every kernel built on it must
// write each output element from exactly one statically determined
// chunk, so results are bit-identical for every width. The chunk
// layout is a pure function of (width, n, grain) — never of runtime
// scheduling — which is what the determinism tests pin.
//
// The package holds no width setting. Inside a simulated world a
// kernel passes its run's width (mpi.Model.Workers, read from the Comm)
// to NumChunksAt; host work outside a world calls NumChunks, ForChunked
// and For, which fork to runtime.GOMAXPROCS(0).
//
// The pool is global and lazily grown; concurrent ForChunked calls
// (e.g. the bench sweep running several hierarchies at once) share it,
// so the process-wide goroutine count stays bounded by the largest
// width in use rather than multiplying. A caller that finds the
// submission queue full, or that is waiting for its own chunks, helps
// drain the queue instead of parking — nested and concurrent use can
// therefore never deadlock the pool.
package hostpar

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// maxPool caps the lazily grown pool; chunks beyond it run via the
// queue-full inline fallback, so the cap bounds goroutines, not
// parallelism correctness.
const maxPool = 256

var (
	poolMu   sync.Mutex
	poolSize int
	taskq    = make(chan task, 512)
)

// job is the shared state of one ForN call: the loop body, the chunk
// layout, and the completion counter. Jobs cycle through a sync.Pool so
// a steady-state caller (e.g. a force loop invoking ForN every
// iteration) allocates nothing per call beyond its own body closure.
type job struct {
	body    func(c, lo, hi int)
	n       int
	chunks  int
	pending atomic.Int32

	// The panic of the lowest-indexed chunk that panicked, if any; ForN
	// re-raises it on its caller once every chunk has finished.
	panicMu  sync.Mutex
	panicked bool
	panicC   int
	panicVal any
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

// task is one chunk of a job. Tasks travel through the queue by value,
// so submission never allocates.
type task struct {
	j *job
	c int
}

func (t task) run() {
	defer t.j.done(t.c)
	lo, hi := ChunkBounds(t.j.n, t.j.chunks, t.c)
	t.j.body(t.c, lo, hi)
}

// done ends chunk c: it records the chunk's panic, if any, instead of
// letting it kill a pool goroutine, then counts the chunk finished.
func (j *job) done(c int) {
	if v := recover(); v != nil {
		j.panicMu.Lock()
		if !j.panicked || c < j.panicC {
			j.panicked, j.panicC, j.panicVal = true, c, v
		}
		j.panicMu.Unlock()
	}
	// Last touch of j: the decrement publishes the body's writes to the
	// ForN caller spinning on pending, which then owns the job.
	j.pending.Add(-1)
}

// ensureWorkers grows the shared pool to at least n parked workers.
func ensureWorkers(n int) {
	if n > maxPool {
		n = maxPool
	}
	poolMu.Lock()
	for poolSize < n {
		poolSize++
		go func() {
			for t := range taskq {
				t.run()
			}
		}()
	}
	poolMu.Unlock()
}

// NumChunks returns the chunk count a loop outside a simulated world
// splits n items into at the given minimum grain: NumChunksAt at
// GOMAXPROCS width.
func NumChunks(n, grain int) int {
	return NumChunksAt(runtime.GOMAXPROCS(0), n, grain)
}

// NumChunksAt returns the chunk count a loop over n items with the
// given minimum grain (iterations per chunk) splits into at the given
// width: min(width, n/grain), floored at 1; 0 for n <= 0. It is a pure
// function of its arguments.
func NumChunksAt(width, n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	c := width
	if mx := n / grain; c > mx {
		c = mx
	}
	if c < 1 {
		c = 1
	}
	return c
}

// ChunkBounds returns the half-open range [lo, hi) of chunk c when n
// items are split into the given number of contiguous chunks. Pure
// arithmetic: chunk c covers [c*n/chunks, (c+1)*n/chunks).
func ChunkBounds(n, chunks, c int) (lo, hi int) {
	return c * n / chunks, (c + 1) * n / chunks
}

// ForN runs body(c, lo, hi) for each of exactly `chunks` statically
// assigned contiguous chunks of [0, n), in parallel across the pool.
// Callers that need several passes over the same chunk layout (count,
// convert, fill) compute chunks once with NumChunks and reuse it.
// body must only write state owned by its chunk; ForN returns after
// every chunk has completed (with the usual happens-before guarantee).
// A chunk that panics does not stop the others: once every chunk has
// finished, ForN panics on its caller with the value of the
// lowest-indexed chunk that panicked.
func ForN(n, chunks int, body func(c, lo, hi int)) {
	if n <= 0 || chunks <= 0 {
		return
	}
	if chunks == 1 {
		body(0, 0, n)
		return
	}
	ensureWorkers(chunks - 1)
	j := jobPool.Get().(*job)
	j.body, j.n, j.chunks = body, n, chunks
	j.pending.Store(int32(chunks))
	for c := 1; c < chunks; c++ {
		t := task{j: j, c: c}
		select {
		case taskq <- t:
		default:
			t.run() // queue full: run inline rather than block
		}
	}
	task{j: j, c: 0}.run()
	// Help drain the shared queue while waiting: parking here could
	// strand nested invocations whose chunks sit in the queue behind
	// other waiting callers.
	for j.pending.Load() > 0 {
		select {
		case t := <-taskq:
			t.run()
		default:
			runtime.Gosched()
		}
	}
	panicked, v := j.panicked, j.panicVal
	// Drop the closure and panic references before pooling.
	j.body, j.panicked, j.panicVal = nil, false, nil
	jobPool.Put(j)
	if panicked {
		panic(v)
	}
}

// ForChunked runs body(c, lo, hi) over NumChunks(n, grain) static
// contiguous chunks of [0, n).
func ForChunked(n, grain int, body func(c, lo, hi int)) {
	ForN(n, NumChunks(n, grain), body)
}

// For runs body(i) for every i in [0, n), statically chunked with the
// given minimum grain. body must only write state owned by iteration i.
func For(n, grain int, body func(i int)) {
	ForChunked(n, grain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}
