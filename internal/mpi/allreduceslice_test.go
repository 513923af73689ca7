package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// reducePayload is rank r's contribution to the k-th reduction of the
// AllReduceSliceWith tests: fixed length, rank- and round-dependent.
func reducePayload(r, k int) []int64 {
	return []int64{int64(r + k), int64(1000 * r), int64(k)}
}

// TestAllReduceSliceWithDerivesOnce: derive runs exactly once per
// collective, sees the element-wise sums, and every rank receives the
// very value it returned.
func TestAllReduceSliceWithDerivesOnce(t *testing.T) {
	const rounds = 3
	t.Run("fanin", func(t *testing.T) {
		for _, p := range gatherSizes() {
			var calls atomic.Int32
			got := make([][rounds]*[]int64, p)
			Run(p, DefaultModel(), func(c *Comm) {
				for k := 0; k < rounds; k++ {
					got[c.Rank()][k] = AllReduceSliceWith(c, reducePayload(c.Rank(), k), 8, SumInt64, func(sums []int64) *[]int64 {
						calls.Add(1)
						out := slices.Clone(sums)
						return &out
					})
				}
			})
			if n := calls.Load(); n != rounds {
				t.Fatalf("P=%d: derive ran %d times over %d collectives", p, n, rounds)
			}
			for k := 0; k < rounds; k++ {
				want := make([]int64, 3)
				for r := 0; r < p; r++ {
					for i, v := range reducePayload(r, k) {
						want[i] += v
					}
				}
				for r := 0; r < p; r++ {
					if got[r][k] != got[0][k] {
						t.Fatalf("P=%d round %d: rank %d received a different value than rank 0", p, k, r)
					}
				}
				if !slices.Equal(*got[0][k], want) {
					t.Fatalf("P=%d round %d: derived %v, want %v", p, k, *got[0][k], want)
				}
			}
		}
	})
}

// TestAllReduceSliceWithMatchesAllReduceSlice: the same body run
// through AllReduceSlice (selecting on every rank) and through
// AllReduceSliceWith (selecting once) leaves identical data, clocks,
// RankStats and trace events on every rank.
func TestAllReduceSliceWithMatchesAllReduceSlice(t *testing.T) {
	type run struct {
		data   [][]int64
		stats  []RankStats
		events [][]trace.Event
	}
	// pick is a rank-identical selection over the reduced sums.
	pick := func(sums []int64) int64 { return slices.Max(sums) - sums[0] }
	body := func(with bool) func(p int) run {
		return func(p int) run {
			data := make([][]int64, p)
			m := DefaultModel()
			rec := trace.New()
			m.Trace = rec
			stats := Run(p, m, func(c *Comm) {
				c.SetPhase("reduce")
				for k := 0; k < 3; k++ {
					var v int64
					if with {
						v = AllReduceSliceWith(c, reducePayload(c.Rank(), k), 8, SumInt64, pick)
					} else {
						v = pick(AllReduceSlice(c, reducePayload(c.Rank(), k), 8, SumInt64))
					}
					data[c.Rank()] = append(data[c.Rank()], v)
					c.Charge(float64(c.Rank() + k)) // skew the clocks between rounds
				}
			})
			events := make([][]trace.Event, p)
			for r, rt := range rec.Ranks() {
				events[r] = rt.Events()
			}
			return run{data, stats, events}
		}
	}
	t.Run("fanin", func(t *testing.T) {
		for _, p := range gatherSizes() {
			want, got := body(false)(p), body(true)(p)
			if !reflect.DeepEqual(got.data, want.data) {
				t.Fatalf("P=%d: derived data differs", p)
			}
			for r := range want.stats {
				if got.stats[r] != want.stats[r] {
					t.Fatalf("P=%d rank %d stats: %+v, AllReduceSlice %+v", p, r, got.stats[r], want.stats[r])
				}
			}
			if !reflect.DeepEqual(got.events, want.events) {
				t.Fatalf("P=%d: trace events differ from AllReduceSlice's", p)
			}
		}
	})
}

// TestAllReduceSliceWithPanickingDerive: a panic in derive fails the
// run through RunChecked promptly — every parked rank is woken by the
// abort — rather than hanging until the watchdog.
func TestAllReduceSliceWithPanickingDerive(t *testing.T) {
	t.Run("fanin", func(t *testing.T) {
		for _, p := range []int{1, 4, 64} {
			start := time.Now()
			_, err := RunChecked(p, DefaultModel(), func(c *Comm) {
				AllReduceSliceWith(c, reducePayload(c.Rank(), 0), 8, SumInt64, func([]int64) int {
					panic("derive failed")
				})
				c.Barrier()
			})
			if err == nil {
				t.Fatalf("P=%d: a panicking derive did not fail the run", p)
			}
			var dl *DeadlockError
			if errors.As(err, &dl) {
				t.Fatalf("P=%d: the run was ended by the watchdog: %v", p, err)
			}
			if !strings.Contains(fmt.Sprint(err), "derive failed") {
				t.Fatalf("P=%d: error %q does not carry the panic", p, err)
			}
			if d := time.Since(start); d >= DefaultWatchdogWindow/2 {
				t.Fatalf("P=%d: the failed run took %v to return", p, d)
			}
		}
	})
}
