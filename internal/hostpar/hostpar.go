// Package hostpar is the shared host-side fork-join substrate: a
// reusable worker pool with statically chunked parallel-for loops.
//
// It parallelises the *real* computation a simulation host performs
// (coarsening, CSR assembly, boundary scans) and is therefore required
// to be invisible to the paper's model: every kernel built on it must
// write each output element from exactly one statically determined
// chunk, so results are bit-identical for every worker count. The
// chunk layout is a pure function of (n, chunk count) — never of
// runtime scheduling — which is what the determinism tests pin.
//
// The pool is global and lazily grown; concurrent ForChunked calls
// (e.g. the bench sweep running several hierarchies at once) share it,
// so the process-wide goroutine count stays bounded by the largest
// worker setting rather than multiplying. A caller that finds the
// submission queue full, or that is waiting for its own chunks, helps
// drain the queue instead of parking — nested and concurrent use can
// therefore never deadlock the pool.
package hostpar

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// workerSetting is the configured worker count; 0 means one worker per
// available core (GOMAXPROCS). Set from the -workers flags.
var workerSetting atomic.Int32

// SetWorkers sets the host worker count and returns the previous
// setting (0 meaning "one per core"). Passing 0 restores the default.
// Tests flip it to prove worker count never changes results.
func SetWorkers(n int) int {
	if n < 0 {
		n = 0
	}
	return int(workerSetting.Swap(int32(n)))
}

// Workers returns the effective worker count: the configured setting,
// or GOMAXPROCS when unset.
func Workers() int {
	if n := int(workerSetting.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

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
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

// task is one chunk of a job. Tasks travel through the queue by value,
// so submission never allocates.
type task struct {
	j *job
	c int
}

func (t task) run() {
	lo, hi := ChunkBounds(t.j.n, t.j.chunks, t.c)
	t.j.body(t.c, lo, hi)
	// Last touch of t.j: the decrement publishes the body's writes to
	// the ForN caller spinning on pending, which then owns the job.
	t.j.pending.Add(-1)
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

// NumChunks returns the chunk count a loop over n items with the given
// minimum grain (iterations per chunk) splits into under the current
// worker setting: min(Workers, n/grain), floored at 1; 0 for n <= 0.
// It is a pure function of (n, grain, worker setting).
func NumChunks(n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	c := Workers()
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
// convert, fill) compute chunks once with NumChunks and reuse it, so
// all passes agree even if the worker setting changes mid-call.
// body must only write state owned by its chunk; ForN returns after
// every chunk has completed (with the usual happens-before guarantee).
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
	j.pending.Store(int32(chunks - 1))
	for c := 1; c < chunks; c++ {
		t := task{j: j, c: c}
		select {
		case taskq <- t:
		default:
			t.run() // queue full: run inline rather than block
		}
	}
	lo, hi := ChunkBounds(n, chunks, 0)
	body(0, lo, hi)
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
	j.body = nil // drop the closure reference before pooling
	jobPool.Put(j)
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
