package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geometry"
)

// watchdogModel returns a default model with a short watchdog window so
// deadlock tests finish quickly.
func watchdogModel(window time.Duration) Model {
	m := DefaultModel()
	m.Watchdog = window
	return m
}

// requireNoGoroutineLeak asserts the goroutine count returns to (about)
// the given baseline, proving every rank goroutine terminated.
func requireNoGoroutineLeak(t *testing.T, baseline int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestDeadlockWatchdogNamesBlockedRanks deliberately deadlocks two
// ranks (each receives from the other with no matching send); the
// watchdog must abort within its window with a RankError whose
// diagnostic names both blocked ranks — no hang, no escaping panic.
func TestDeadlockWatchdogNamesBlockedRanks(t *testing.T) {
	baseline := runtime.NumGoroutine()
	_, err := RunChecked(2, watchdogModel(200*time.Millisecond), func(c *Comm) {
		c.SetPhase("exchange")
		c.Recv(1 - c.Rank()) // nobody ever sends
	})
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("want *RankError, got %T: %v", err, err)
	}
	if re.Phase != "exchange" {
		t.Fatalf("phase %q, want exchange", re.Phase)
	}
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want wrapped *DeadlockError, got %v", err)
	}
	blocked := dl.Blocked()
	if len(blocked) != 2 || blocked[0] != 0 || blocked[1] != 1 {
		t.Fatalf("blocked ranks %v, want [0 1]", blocked)
	}
	msg := err.Error()
	for _, want := range []string{"rank 0", "rank 1", "Recv", "no matching send"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("diagnostic missing %q:\n%s", want, msg)
		}
	}
	requireNoGoroutineLeak(t, baseline)
}

// TestKillFaultDuringEachCollective kills one rank at its first
// communication event inside each collective (and the halo exchange);
// in every case all goroutines must terminate and the error must
// identify the faulted rank and the phase it died in.
func TestKillFaultDuringEachCollective(t *testing.T) {
	const p = 6
	grid := GridFor(p)
	cases := []struct {
		phase string
		body  func(c *Comm)
	}{
		{"bcast", func(c *Comm) { c.Bcast(0, c.Rank(), 8) }},
		{"reduce", func(c *Comm) { Reduce(c, int64(1), 8, SumInt64) }},
		{"allgather", func(c *Comm) { AllGather(c, c.Rank(), 8) }},
		{"alltoallv", func(c *Comm) {
			dest := make([][]int32, c.Size())
			for r := 0; r < c.Size(); r++ {
				if r != c.Rank() {
					dest[r] = []int32{int32(c.Rank())}
				}
			}
			allToAllParts(c, dest, 4)
		}},
		{"haloexchange", func(c *Comm) {
			nbrs := grid.Neighbors(c.Rank())
			payload := make([]any, len(nbrs))
			bytes := make([]int, len(nbrs))
			for i := range nbrs {
				payload[i] = c.Rank()
				bytes[i] = 8
			}
			HaloExchange(c, grid, payload, bytes)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.phase, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			m := watchdogModel(time.Second)
			m.Faults = NewFaultPlan().Kill(2, 0)
			_, err := RunChecked(p, m, func(c *Comm) {
				c.SetPhase(tc.phase)
				tc.body(c)
			})
			if err == nil {
				t.Fatal("expected error from killed rank")
			}
			var re *RankError
			if !errors.As(err, &re) {
				t.Fatalf("want *RankError, got %T: %v", err, err)
			}
			if re.Rank != 2 {
				t.Fatalf("faulted rank %d, want 2 (%v)", re.Rank, err)
			}
			if re.Phase != tc.phase {
				t.Fatalf("phase %q, want %q", re.Phase, tc.phase)
			}
			var inj *InjectedFault
			if !errors.As(err, &inj) || inj.Rank != 2 || inj.Event != 0 {
				t.Fatalf("want wrapped *InjectedFault{2,0}, got %v", err)
			}
			requireNoGoroutineLeak(t, baseline)
		})
	}
}

// TestVoluntaryAbort checks Comm.Abort surfaces the given error as a
// RankError and unblocks the rest of the world.
func TestVoluntaryAbort(t *testing.T) {
	sentinel := errors.New("malformed local graph")
	_, err := RunChecked(4, watchdogModel(time.Second), func(c *Comm) {
		c.SetPhase("validate")
		if c.Rank() == 3 {
			c.Abort(sentinel)
		}
		c.Recv(3) // never satisfied; unblocked by the abort
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("want sentinel error, got %v", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 3 || re.Phase != "validate" {
		t.Fatalf("want RankError{3, validate}, got %v", err)
	}
}

// TestDropMessageTriggersWatchdog drops a point-to-point message on the
// wire; the receiver blocks forever and the watchdog must identify it.
func TestDropMessageTriggersWatchdog(t *testing.T) {
	m := watchdogModel(200 * time.Millisecond)
	m.Faults = NewFaultPlan().Drop(0, 0)
	start := time.Now()
	_, err := RunChecked(2, m, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, "payload", 64)
		} else {
			c.SetPhase("recv")
			c.Recv(0)
		}
	})
	var dl *DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	blocked := dl.Blocked()
	if len(blocked) != 1 || blocked[0] != 1 {
		t.Fatalf("blocked %v, want [1]", blocked)
	}
	// The run's Model.Watchdog sets the stall window, well inside the
	// built-in default.
	if dl.Window != 200*time.Millisecond {
		t.Fatalf("watchdog ran with window %v, want the model's 200ms", dl.Window)
	}
	if elapsed := time.Since(start); elapsed >= DefaultWatchdogWindow {
		t.Fatalf("watchdog took %v, should fire within a few 200ms windows", elapsed)
	}
}

// TestDelayMessagePerturbsOnlyReceiver checks the fault model composes
// with the cost model: a delayed message moves the receiver's clock by
// exactly the delay and leaves every other rank bit-identical.
func TestDelayMessagePerturbsOnlyReceiver(t *testing.T) {
	body := func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, "x", 100)
		case 1:
			c.Recv(0)
		case 2:
			c.Charge(1000)
		}
	}
	clean, err := RunChecked(3, DefaultModel(), body)
	if err != nil {
		t.Fatal(err)
	}
	const delay = 1e-3
	m := DefaultModel()
	m.Faults = NewFaultPlan().Delay(0, 0, delay)
	faulted, err := RunChecked(3, m, body)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := faulted[1].Time, clean[1].Time+delay; got != want {
		t.Fatalf("receiver clock %v, want %v", got, want)
	}
	if faulted[0].Time != clean[0].Time || faulted[2].Time != clean[2].Time {
		t.Fatalf("unaffected clocks perturbed: %v vs %v", faulted, clean)
	}
}

// TestTruncateCollectivePayload corrupts one rank's contribution to an
// AllReduceSlice; the length-mismatch must surface as a RankError, not
// a hang or an escaping panic.
func TestTruncateCollectivePayload(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m := watchdogModel(time.Second)
	m.Faults = NewFaultPlan().Truncate(1, 0)
	_, err := RunChecked(4, m, func(c *Comm) {
		c.SetPhase("reduce-slice")
		AllReduceSlice(c, []int64{1, 2, 3, 4}, 8, SumInt64)
	})
	if err == nil {
		t.Fatal("expected error from truncated payload")
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("want *RankError, got %T: %v", err, err)
	}
	if !strings.Contains(err.Error(), "mismatched lengths") {
		t.Fatalf("error should surface the length mismatch, got %v", err)
	}
	requireNoGoroutineLeak(t, baseline)
}

// TestTruncatedContributionDescriptiveError: a TruncatePayload fault on
// a contribution that is not a slice loses it, and the collective fails
// with a RankError for the contributing rank, in its phase, whose
// message names the op and ends with "truncated payload?" — not a raw
// interface-conversion panic from whichever rank finished, and not a
// hang. It covers a reduction of a Vec2, a Bcast root's int, and a
// one-rank world.
func TestTruncatedContributionDescriptiveError(t *testing.T) {
	addVec2 := func(a, b geometry.Vec2) geometry.Vec2 { return a.Add(b) }
	cases := []struct {
		name, want string
		p, rank    int
		body       func(c *Comm)
	}{
		{"allreduce-vec2", "AllReduce lost the contribution of rank 1", 4, 1, func(c *Comm) {
			AllReduce(c, geometry.Vec2{X: float64(c.Rank())}, 16, addVec2)
		}},
		{"bcast-root", "Bcast lost the contribution of rank 1", 4, 1, func(c *Comm) {
			c.Bcast(1, c.Rank(), 8)
		}},
		{"one-rank", "AllReduce lost the contribution of rank 0", 1, 0, func(c *Comm) {
			AllReduce(c, geometry.Vec2{X: 1}, 16, addVec2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			m := watchdogModel(time.Second)
			m.Faults = NewFaultPlan().Truncate(tc.rank, 0)
			_, err := RunChecked(tc.p, m, func(c *Comm) {
				c.SetPhase("centroid")
				tc.body(c)
			})
			var re *RankError
			if !errors.As(err, &re) {
				t.Fatalf("want *RankError, got %T: %v", err, err)
			}
			if re.Rank != tc.rank || re.Phase != "centroid" {
				t.Fatalf("failure of rank %d in phase %q, want rank %d in centroid: %v", re.Rank, re.Phase, tc.rank, err)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || !strings.HasSuffix(msg, "truncated payload?") {
				t.Fatalf("error does not describe the lost contribution: %v", err)
			}
			requireNoGoroutineLeak(t, baseline)
		})
	}
}

// TestTruncatedSliceFailsItsRank: a TruncatePayload fault that halves
// one rank's AllReduceSlice contribution fails that rank, in its phase,
// whichever rank arrives last and runs the combine. Twenty runs let the
// finisher vary.
func TestTruncatedSliceFailsItsRank(t *testing.T) {
	for run := 0; run < 20; run++ {
		m := watchdogModel(time.Second)
		m.Faults = NewFaultPlan().Truncate(1, 0)
		_, err := RunChecked(4, m, func(c *Comm) {
			c.SetPhase("reduce-slice")
			AllReduceSlice(c, []int64{1, 2, 3, 4}, 8, SumInt64)
		})
		var re *RankError
		if !errors.As(err, &re) {
			t.Fatalf("run %d: want *RankError, got %T: %v", run, err, err)
		}
		if re.Rank != 1 || re.Phase != "reduce-slice" {
			t.Fatalf("run %d: failure of rank %d in phase %q, want rank 1 in reduce-slice: %v", run, re.Rank, re.Phase, err)
		}
		if msg := err.Error(); !strings.Contains(msg, "halved contribution of rank 1") || !strings.HasSuffix(msg, "truncated payload?") {
			t.Fatalf("run %d: error does not describe the halved contribution: %v", run, err)
		}
	}
}

// TestTruncatedCountsFailTheirRank: a TruncatePayload fault on one
// rank's AllToAllV count row fails that rank with a message that says
// what was short. At P = 256 on two host workers the count transpose
// forks into chunks; the row check runs before it does, so a short row
// is a RankError there too, never a crash on a pool goroutine.
func TestTruncatedCountsFailTheirRank(t *testing.T) {
	for _, p := range []int{4, 256} {
		baseline := runtime.NumGoroutine()
		m := watchdogModel(5 * time.Second)
		m.Workers = 2
		m.Faults = NewFaultPlan().Truncate(1, 0)
		_, err := RunChecked(p, m, func(c *Comm) {
			c.SetPhase("route")
			send, counts := make([]int32, c.Size()), make([]int32, c.Size())
			for r := range counts {
				counts[r] = 1
			}
			AllToAllV(c, send, counts, 4)
		})
		var re *RankError
		if !errors.As(err, &re) {
			t.Fatalf("P=%d: want *RankError, got %T: %v", p, err, err)
		}
		if re.Rank != 1 || re.Phase != "route" {
			t.Fatalf("P=%d: failure of rank %d in phase %q, want rank 1 in route: %v", p, re.Rank, re.Phase, err)
		}
		want := fmt.Sprintf("rank 1 sent %d counts to a %d-rank count exchange", p/2, p)
		if msg := err.Error(); !strings.Contains(msg, want) || !strings.HasSuffix(msg, "truncated payload?") {
			t.Fatalf("P=%d: error %q, want it to say %q", p, err, want)
		}
		requireNoGoroutineLeak(t, baseline)
	}
}

// TestFaultFreeClocksUnchanged pins the acceptance requirement that
// fault-free runs are bit-identical with and without the fault-handling
// machinery engaged (empty plan, watchdog on or off).
func TestFaultFreeClocksUnchanged(t *testing.T) {
	body := func(c *Comm) {
		for i := 0; i < 5; i++ {
			AllReduce(c, float64(c.Rank()), 8, SumFloat64)
			if c.Rank() > 0 {
				c.Send(c.Rank()-1, i, 8)
			}
			if c.Rank() < c.Size()-1 {
				c.Recv(c.Rank() + 1)
			}
			c.Charge(float64(c.Rank()) * 100)
		}
	}
	ref := Run(8, DefaultModel(), body)
	variants := []Model{
		watchdogModel(50 * time.Millisecond),
		{Latency: 2.0e-6, PerByte: 0.33e-9, PerOp: 1.5e-9, PerPeer: 0.2e-6, Watchdog: -1},
	}
	empty := DefaultModel()
	empty.Faults = NewFaultPlan()
	variants = append(variants, empty)
	for i, m := range variants {
		got, err := RunChecked(8, m, body)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		for r := range ref {
			if got[r].Time != ref[r].Time || got[r].CommTime != ref[r].CommTime {
				t.Fatalf("variant %d rank %d: clock %v/%v, want %v/%v",
					i, r, got[r].Time, got[r].CommTime, ref[r].Time, ref[r].CommTime)
			}
		}
	}
}

// TestRandomKillPlansAlwaysTerminate fuzzes seeded kill plans over a
// communication-heavy program: whatever the position of the kill, the
// run must terminate (with an error when the fault was reached).
func TestRandomKillPlansAlwaysTerminate(t *testing.T) {
	body := func(c *Comm) {
		for i := 0; i < 4; i++ {
			AllReduce(c, int64(c.Rank()), 8, SumInt64)
			next := (c.Rank() + 1) % c.Size()
			prev := (c.Rank() + c.Size() - 1) % c.Size()
			c.Send(next, i, 8)
			c.Recv(prev)
			AllGather(c, c.Rank(), 8)
		}
	}
	for seed := int64(0); seed < 24; seed++ {
		m := watchdogModel(2 * time.Second)
		m.Faults = RandomKillPlan(seed, 8, 12)
		_, err := RunChecked(8, m, body)
		if err == nil {
			t.Fatalf("seed %d: kill fault at %+v not reached", seed, m.Faults.Faults[0])
		}
		var inj *InjectedFault
		if !errors.As(err, &inj) {
			t.Fatalf("seed %d: want *InjectedFault, got %v", seed, err)
		}
	}
}

// TestRunCheckedHealthyMatchesRun checks the checked variant is a
// drop-in for healthy runs.
func TestRunCheckedHealthyMatchesRun(t *testing.T) {
	body := func(c *Comm) { c.Barrier(); c.Charge(100) }
	want := Run(4, DefaultModel(), body)
	got, err := RunChecked(4, DefaultModel(), body)
	if err != nil {
		t.Fatal(err)
	}
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("rank %d: %+v vs %+v", r, got[r], want[r])
		}
	}
}

// TestRankErrorFormatting pins the error strings diagnostics rely on.
func TestRankErrorFormatting(t *testing.T) {
	re := &RankError{Rank: 3, Phase: "embed", Err: fmt.Errorf("boom")}
	if got := re.Error(); !strings.Contains(got, "rank 3") || !strings.Contains(got, "embed") {
		t.Fatalf("unhelpful error: %q", got)
	}
	if (&RankError{Rank: 1, Err: fmt.Errorf("x")}).Error() != "rank 1 failed: x" {
		t.Fatal("phase-less formatting changed")
	}
}

// RandomKillPlan derives a single seeded kill fault: a pseudo-random
// rank of a P-rank world dies at a pseudo-random communication event
// below maxEvent. Useful for fuzz-style robustness sweeps.
func RandomKillPlan(seed int64, p int, maxEvent int64) *FaultPlan {
	return RandomPlan(seed, p, maxEvent, KillRank)
}
