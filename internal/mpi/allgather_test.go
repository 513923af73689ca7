package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// cellPayload is rank r's contribution to the k-th gather of the
// AllGatherWith tests: a fixed-length slice, rank- and round-dependent,
// like the embedding's per-rank sub-cells.
func cellPayload(r, k int) []float64 {
	out := make([]float64, 4)
	for i := range out {
		out[i] = float64(1000*r+10*k+i) / 8
	}
	return out
}

// sumCells is a derive that turns the gathered payloads into one
// rank-identical value: every element of every contribution, in rank
// order, and their sum.
type sumCells struct {
	all []float64
	sum float64
}

func deriveSum(parts [][]float64) *sumCells {
	d := &sumCells{}
	for _, p := range parts {
		for _, v := range p {
			d.all = append(d.all, v)
			d.sum += v
		}
	}
	return d
}

// TestAllGatherWithDerivesOnce: derive runs exactly once per
// collective, and every rank receives the very value it returned.
func TestAllGatherWithDerivesOnce(t *testing.T) {
	const rounds = 3
	t.Run("fanin", func(t *testing.T) {
		for _, p := range gatherSizes() {
			var calls atomic.Int32
			got := make([][rounds]*sumCells, p)
			Run(p, DefaultModel(), func(c *Comm) {
				for k := 0; k < rounds; k++ {
					got[c.Rank()][k] = AllGatherWith(c, cellPayload(c.Rank(), k), 32, func(parts [][]float64) *sumCells {
						calls.Add(1)
						return deriveSum(parts)
					})
				}
			})
			if n := calls.Load(); n != rounds {
				t.Fatalf("P=%d: derive ran %d times over %d collectives", p, n, rounds)
			}
			for k := 0; k < rounds; k++ {
				parts := make([][]float64, p)
				for r := range parts {
					parts[r] = cellPayload(r, k)
				}
				want := deriveSum(parts)
				for r := 0; r < p; r++ {
					if got[r][k] != got[0][k] {
						t.Fatalf("P=%d round %d: rank %d received a different value than rank 0", p, k, r)
					}
				}
				if !reflect.DeepEqual(got[0][k], want) {
					t.Fatalf("P=%d round %d: derived %+v, want %+v", p, k, got[0][k], want)
				}
			}
		}
	})
}

// TestAllGatherWithMatchesAllGather: the same body run through
// AllGather (summing on every rank) and through AllGatherWith (summing
// once) leaves identical data, clocks, RankStats and trace events on
// every rank.
func TestAllGatherWithMatchesAllGather(t *testing.T) {
	type run struct {
		sums   [][]float64
		stats  []RankStats
		events [][]trace.Event
	}
	body := func(with bool, p int) run {
		sums := make([][]float64, p)
		m := DefaultModel()
		rec := trace.New()
		m.Trace = rec
		stats := Run(p, m, func(c *Comm) {
			c.SetPhase("gather")
			for k := 0; k < 3; k++ {
				var d *sumCells
				if with {
					d = AllGatherWith(c, cellPayload(c.Rank(), k), 32, deriveSum)
				} else {
					d = deriveSum(AllGather(c, cellPayload(c.Rank(), k), 32))
				}
				sums[c.Rank()] = append(sums[c.Rank()], d.sum)
				c.Charge(float64(c.Rank() + k)) // skew the clocks between rounds
			}
		})
		events := make([][]trace.Event, p)
		for r, rt := range rec.Ranks() {
			events[r] = rt.Events()
		}
		return run{sums, stats, events}
	}
	t.Run("fanin", func(t *testing.T) {
		for _, p := range gatherSizes() {
			want, got := body(false, p), body(true, p)
			if !reflect.DeepEqual(got.sums, want.sums) {
				t.Fatalf("P=%d: derived data differs", p)
			}
			for r := range want.stats {
				if got.stats[r] != want.stats[r] {
					t.Fatalf("P=%d rank %d stats: %+v, AllGather %+v", p, r, got.stats[r], want.stats[r])
				}
			}
			if !reflect.DeepEqual(got.events, want.events) {
				t.Fatalf("P=%d: trace events differ from AllGather's", p)
			}
		}
	})
}

// TestAllGatherWithPanickingDerive: a panic in derive fails the run
// through RunChecked promptly — every parked rank is woken by the
// abort — rather than hanging until the watchdog.
func TestAllGatherWithPanickingDerive(t *testing.T) {
	t.Run("fanin", func(t *testing.T) {
		for _, p := range []int{1, 4, 64} {
			start := time.Now()
			_, err := RunChecked(p, DefaultModel(), func(c *Comm) {
				AllGatherWith(c, cellPayload(c.Rank(), 0), 32, func([][]float64) int {
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
