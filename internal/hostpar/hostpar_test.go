package hostpar

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestChunkAssignmentDeterministic pins the static chunk layout: the
// chunk count and every chunk boundary are pure functions of (width, n,
// grain), independent of scheduling — the property every bit-identical
// kernel in coarsen and graph is built on. NumChunks, used outside a
// world, must agree with NumChunksAt at the GOMAXPROCS width.
func TestChunkAssignmentDeterministic(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, width := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(width)
		for _, n := range []int{1, 7, 100, 4096, 100003} {
			for _, grain := range []int{1, 64, 4096} {
				want := NumChunksAt(width, n, grain)
				if mx := max(1, n/grain); want != min(width, mx) {
					t.Fatalf("width=%d n=%d grain=%d: NumChunksAt = %d, want min(width, n/grain) = %d", width, n, grain, want, min(width, mx))
				}
				if got := NumChunks(n, grain); got != want {
					t.Fatalf("GOMAXPROCS=%d n=%d grain=%d: NumChunks = %d, NumChunksAt = %d", width, n, grain, got, want)
				}
				for trial := 0; trial < 3; trial++ {
					var mu sync.Mutex
					got := make(map[int][2]int)
					ForN(n, want, func(c, lo, hi int) {
						mu.Lock()
						got[c] = [2]int{lo, hi}
						mu.Unlock()
					})
					if len(got) != want {
						t.Fatalf("width=%d n=%d grain=%d: %d chunks ran, NumChunksAt says %d", width, n, grain, len(got), want)
					}
					for c, b := range got {
						lo, hi := ChunkBounds(n, want, c)
						if b[0] != lo || b[1] != hi {
							t.Fatalf("width=%d n=%d grain=%d chunk %d: ran [%d,%d), ChunkBounds says [%d,%d)", width, n, grain, c, b[0], b[1], lo, hi)
						}
					}
				}
			}
		}
	}
}

// TestChunkBoundsPartition checks chunks tile [0, n) exactly: adjacent,
// disjoint, complete, and every chunk meets the grain floor that
// NumChunks promised.
func TestChunkBoundsPartition(t *testing.T) {
	for _, n := range []int{1, 2, 7, 63, 64, 65, 1000, 99991} {
		for _, chunks := range []int{1, 2, 3, 7, 8} {
			if chunks > n {
				continue
			}
			prev := 0
			for c := 0; c < chunks; c++ {
				lo, hi := ChunkBounds(n, chunks, c)
				if lo != prev {
					t.Fatalf("n=%d chunks=%d: chunk %d starts at %d, want %d", n, chunks, c, lo, prev)
				}
				if hi <= lo {
					t.Fatalf("n=%d chunks=%d: chunk %d empty [%d,%d)", n, chunks, c, lo, hi)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d chunks=%d: chunks end at %d", n, chunks, prev)
			}
		}
	}
}

// TestForVisitsEachIndexOnce runs For at several GOMAXPROCS widths and
// checks every index is visited exactly once.
func TestForVisitsEachIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 8} {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
		const n = 50000
		visits := make([]int32, n)
		For(n, 1, func(i int) {
			atomic.AddInt32(&visits[i], 1)
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", w, i, v)
			}
		}
	}
}

// TestNestedForDoesNotDeadlock exercises the helping wait: outer chunks
// running on pool workers issue inner parallel loops whose chunks queue
// behind them.
func TestNestedForDoesNotDeadlock(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var total atomic.Int64
	For(64, 1, func(i int) {
		For(1000, 1, func(j int) {
			total.Add(1)
		})
	})
	if got := total.Load(); got != 64*1000 {
		t.Fatalf("nested loops ran %d inner iterations, want %d", got, 64*1000)
	}
}

// TestConcurrentCallersShareThePool runs many goroutines each issuing
// parallel loops, mimicking the bench sweep building hierarchies
// concurrently; results must be independent and complete.
func TestConcurrentCallersShareThePool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const callers = 16
	var wg sync.WaitGroup
	sums := make([]int64, callers)
	for g := 0; g < callers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var s atomic.Int64
			For(10000, 16, func(i int) { s.Add(int64(i)) })
			sums[g] = s.Load()
		}()
	}
	wg.Wait()
	want := int64(10000) * 9999 / 2
	for g, s := range sums {
		if s != want {
			t.Fatalf("caller %d summed %d, want %d", g, s, want)
		}
	}
}

// TestForNPanicReachesCaller: a chunk's panic, on a pool goroutine or
// on the caller's own chunk 0, does not kill the process or cut the
// other chunks short. ForN lets every chunk finish and then panics on
// its caller with the value of the lowest-indexed chunk that panicked.
// The pool stays usable afterwards, and a loop that does not panic
// allocates nothing.
func TestForNPanicReachesCaller(t *testing.T) {
	const n, chunks = 64, 8
	for _, tc := range []struct {
		name  string
		panic []int // chunks that panic, with their index as the value
		want  int
	}{
		{"pool-chunks", []int{5, 2, 7}, 2},
		{"chunk-zero", []int{0, 3}, 0},
		{"last-chunk", []int{chunks - 1}, chunks - 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ran atomic.Int32
			got := func() (v any) {
				defer func() { v = recover() }()
				ForN(n, chunks, func(c, lo, hi int) {
					ran.Add(1)
					for _, p := range tc.panic {
						if c == p {
							panic(c)
						}
					}
				})
				return nil
			}()
			if got != tc.want {
				t.Fatalf("ForN panicked with %v, want chunk %d's value", got, tc.want)
			}
			if ran.Load() != chunks {
				t.Fatalf("%d of %d chunks ran", ran.Load(), chunks)
			}
		})
	}
	var sum atomic.Int64
	ForN(n, chunks, func(_, lo, hi int) { sum.Add(int64(hi - lo)) })
	if sum.Load() != n {
		t.Fatalf("after the panics, a loop covered %d of %d items", sum.Load(), n)
	}
	body := func(_, lo, hi int) { sum.Add(int64(hi - lo)) }
	if allocs := testing.AllocsPerRun(100, func() { ForN(n, chunks, body) }); allocs != 0 {
		t.Fatalf("a loop without panics allocated %v times per call", allocs)
	}
}
