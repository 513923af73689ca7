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

// gatherPayload is rank r's contribution to the k-th gather of the
// AllGatherVWith tests: variable length, rank- and round-dependent.
func gatherPayload(r, k int) []int32 {
	out := make([]int32, (r+k)%4)
	for i := range out {
		out[i] = int32(1000*r + 10*k + i)
	}
	return out
}

// forEachEngine runs fn once under each collective engine.
func forEachEngine(t *testing.T, fn func(t *testing.T)) {
	for _, e := range []CollectiveEngine{CollectivesFanin, CollectivesLegacy} {
		t.Run(e.String(), func(t *testing.T) {
			defer SetCollectiveEngine(SetCollectiveEngine(e))
			fn(t)
		})
	}
}

// gatherSizes are the world sizes the AllGatherVWith tests sweep.
func gatherSizes() []int {
	if testing.Short() {
		return []int{1, 4, 64}
	}
	return []int{1, 4, 64, 1024}
}

// TestAllGatherVWithDerivesOnce: derive runs exactly once per
// collective, and every rank receives the very value it returned.
func TestAllGatherVWithDerivesOnce(t *testing.T) {
	const rounds = 3
	forEachEngine(t, func(t *testing.T) {
		for _, p := range gatherSizes() {
			var calls atomic.Int32
			got := make([][rounds]*[]int32, p)
			Run(p, DefaultModel(), func(c *Comm) {
				for k := 0; k < rounds; k++ {
					got[c.Rank()][k] = AllGatherVWith(c, gatherPayload(c.Rank(), k), 4, func(parts [][]int32) *[]int32 {
						calls.Add(1)
						all := Concat(parts)
						return &all
					})
				}
			})
			if n := calls.Load(); n != rounds {
				t.Fatalf("P=%d: derive ran %d times over %d collectives", p, n, rounds)
			}
			for k := 0; k < rounds; k++ {
				var want []int32
				for r := 0; r < p; r++ {
					want = append(want, gatherPayload(r, k)...)
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

// TestAllGatherVWithMatchesAllGatherV: the same body run through
// AllGatherV (concatenating on every rank) and through AllGatherVWith
// (concatenating once) leaves identical data, clocks, RankStats and
// trace events on every rank.
func TestAllGatherVWithMatchesAllGatherV(t *testing.T) {
	type run struct {
		data   [][]int32
		stats  []RankStats
		events [][]trace.Event
	}
	body := func(with bool) func(p int) run {
		return func(p int) run {
			data := make([][]int32, p)
			m := DefaultModel()
			rec := trace.New()
			m.Trace = rec
			stats := Run(p, m, func(c *Comm) {
				c.SetPhase("gather")
				for k := 0; k < 3; k++ {
					var all []int32
					if with {
						all = AllGatherVWith(c, gatherPayload(c.Rank(), k), 4, Concat[int32])
					} else {
						all = Concat(AllGatherV(c, gatherPayload(c.Rank(), k), 4))
					}
					data[c.Rank()] = append(data[c.Rank()], all...)
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
	forEachEngine(t, func(t *testing.T) {
		for _, p := range gatherSizes() {
			want, got := body(false)(p), body(true)(p)
			if !reflect.DeepEqual(got.data, want.data) {
				t.Fatalf("P=%d: gathered data differs", p)
			}
			for r := range want.stats {
				if got.stats[r] != want.stats[r] {
					t.Fatalf("P=%d rank %d stats: %+v, AllGatherV %+v", p, r, got.stats[r], want.stats[r])
				}
			}
			if !reflect.DeepEqual(got.events, want.events) {
				t.Fatalf("P=%d: trace events differ from AllGatherV's", p)
			}
		}
	})
}

// TestAllGatherVWithSeesTruncatedPayload: under a TruncatePayload fault
// on the gather, derive sees exactly the truncated contribution that
// AllGatherV returns.
func TestAllGatherVWithSeesTruncatedPayload(t *testing.T) {
	const p = 4
	// Event 0 is AllGatherV's size exchange, event 1 the gather itself.
	plan := NewFaultPlan().Truncate(2, 1)
	payload := func(r int) []int32 { return []int32{int32(r), int32(r), int32(r), int32(r)} }
	forEachEngine(t, func(t *testing.T) {
		m := DefaultModel()
		m.Faults = plan
		var plain [][]int32
		Run(p, m, func(c *Comm) {
			parts := AllGatherV(c, payload(c.Rank()), 4)
			if c.Rank() == 0 {
				plain = parts
			}
		})
		var seen [][]int32
		Run(p, m, func(c *Comm) {
			AllGatherVWith(c, payload(c.Rank()), 4, func(parts [][]int32) int {
				seen = append([][]int32(nil), parts...)
				return 0
			})
		})
		if len(plain[2]) != 2 {
			t.Fatalf("the fault did not truncate rank 2's contribution: %v", plain)
		}
		if !reflect.DeepEqual(seen, plain) {
			t.Fatalf("derive saw %v, AllGatherV returned %v", seen, plain)
		}
	})
}

// TestAllGatherVWithPanickingDerive: a panic in derive fails the run
// through RunChecked promptly — every parked rank is woken by the
// abort — rather than hanging until the watchdog.
func TestAllGatherVWithPanickingDerive(t *testing.T) {
	forEachEngine(t, func(t *testing.T) {
		for _, p := range []int{1, 4, 64} {
			start := time.Now()
			_, err := RunChecked(p, DefaultModel(), func(c *Comm) {
				AllGatherVWith(c, gatherPayload(c.Rank(), 0), 4, func([][]int32) int {
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
