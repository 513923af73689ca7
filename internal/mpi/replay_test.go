package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/hostpar"
)

// withReplay runs fn with the default model under the given replay
// mode and the given host worker count, restoring the worker count
// afterwards.
func withReplay(mode ReplayMode, workers int, fn func(m Model)) {
	defer hostpar.SetWorkers(hostpar.SetWorkers(workers))
	m := DefaultModel()
	m.Replay = mode
	fn(m)
}

func TestParseReplayMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ReplayMode
		ok   bool
	}{
		{"", ReplayGoroutine, true},
		{"goroutine", ReplayGoroutine, true},
		{"batched", ReplayBatched, true},
		{"Batched", 0, false},
		{"threads", 0, false},
	} {
		got, err := ParseReplayMode(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("ParseReplayMode(%q) = %v, %v; want %v, ok=%t", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if ReplayGoroutine.String() != "goroutine" || ReplayBatched.String() != "batched" {
		t.Errorf("String(): %q / %q", ReplayGoroutine, ReplayBatched)
	}
}

// replayWorkload is a communication-heavy body mixing the three
// blocking primitives the slot gate hooks: ring SendRecv, explicit
// send/recv pairs, reductions, and barriers, with local compute charges
// between them.
func replayWorkload(c *Comm) {
	p := c.Size()
	me := c.Rank()
	acc := float64(me)
	for it := 0; it < 6; it++ {
		c.Charge(1000)
		right := (me + 1) % p
		left := (me + p - 1) % p
		got := c.SendRecv(me^1, acc, 8) // pairwise partner (p is even)
		acc += got.(float64) * 0.125
		c.Send(right, acc, 8)
		v := c.Recv(left).(float64)
		acc += v * 0.25
		sum := AllReduce(c, acc, 8, func(a, b float64) float64 { return a + b })
		acc = sum / float64(p)
		c.Barrier()
	}
}

// TestReplayModesIdenticalStats pins the scheduler's invisibility: the
// batched gate changes only host scheduling, so every rank's virtual
// clock, comm time, message count, and byte count must be bit-identical
// to the goroutine replay — including when simulated P far exceeds the
// worker batch.
func TestReplayModesIdenticalStats(t *testing.T) {
	for _, p := range []int{4, 16, 64} {
		var ref []RankStats
		withReplay(ReplayGoroutine, 2, func(m Model) {
			ref = Run(p, m, replayWorkload)
		})
		for _, workers := range []int{1, 2, 8} {
			var got []RankStats
			withReplay(ReplayBatched, workers, func(m Model) {
				got = Run(p, m, replayWorkload)
			})
			for r := range ref {
				a, b := got[r], ref[r]
				if a.Time != b.Time || a.CommTime != b.CommTime ||
					a.Messages != b.Messages || a.BytesSent != b.BytesSent {
					t.Fatalf("p=%d workers=%d rank %d: batched %+v, goroutine %+v", p, workers, r, a, b)
				}
			}
		}
	}
}

// TestReplayBatchedRankFailure: a rank dying mid-run under the batched
// gate must abort the world cleanly — ranks parked on the gate are
// poisoned like ranks parked in communication, every goroutine joins,
// and the failure surfaces as a RankError.
func TestReplayBatchedRankFailure(t *testing.T) {
	baseline := runtime.NumGoroutine()
	withReplay(ReplayBatched, 2, func(m Model) {
		_, err := RunChecked(16, m, func(c *Comm) {
			c.Charge(100)
			c.Barrier()
			if c.Rank() == 5 {
				panic(fmt.Errorf("injected failure"))
			}
			c.Charge(100)
			c.Barrier()
		})
		if err == nil {
			t.Fatal("expected rank failure")
		}
		var re *RankError
		if !errors.As(err, &re) || re.Rank != 5 {
			t.Fatalf("want RankError from rank 5, got %v", err)
		}
	})
	requireNoGoroutineLeak(t, baseline)
}

// TestReplayBatchedWatchdog: a genuine deadlock under the batched gate
// must still be caught by the watchdog — parked ranks release their
// slots before publishing waitInfo, so the watchdog's all-blocked
// picture is unchanged.
func TestReplayBatchedWatchdog(t *testing.T) {
	baseline := runtime.NumGoroutine()
	withReplay(ReplayBatched, 2, func(m Model) {
		m.Watchdog = 200 * time.Millisecond
		_, err := RunChecked(8, m, func(c *Comm) {
			c.SetPhase("stall")
			c.Recv((c.Rank() + 1) % c.Size()) // nobody ever sends
		})
		if err == nil {
			t.Fatal("expected deadlock error")
		}
		var dl *DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("want wrapped *DeadlockError, got %v", err)
		}
		if len(dl.Blocked()) != 8 {
			t.Fatalf("blocked ranks %v, want all 8", dl.Blocked())
		}
	})
	requireNoGoroutineLeak(t, baseline)
}

// TestReplayGateSizing: the gate only exists when it can bound
// anything — batched mode with fewer workers than ranks.
func TestReplayGateSizing(t *testing.T) {
	withReplay(ReplayBatched, 4, func(m Model) {
		if g := newStepGate(16, m.Replay); g == nil || cap(g) != 4 {
			t.Fatalf("gate for p=16, workers=4: %v (cap %d), want capacity 4", g, cap(g))
		}
		if g := newStepGate(4, m.Replay); g != nil {
			t.Fatal("gate for p=workers should be nil")
		}
	})
	withReplay(ReplayGoroutine, 4, func(m Model) {
		if g := newStepGate(16, m.Replay); g != nil {
			t.Fatal("goroutine mode must not gate")
		}
	})
}
