package mpi

import (
	"math"
	"testing"
)

func TestChargeAndChargeTime(t *testing.T) {
	m := DefaultModel()
	stats := Run(1, m, func(c *Comm) {
		c.Charge(1000)
		c.ChargeTime(1e-3)
	})
	want := 1000*m.PerOp + 1e-3
	if math.Abs(stats[0].Time-want) > 1e-12 {
		t.Fatalf("time %v want %v", stats[0].Time, want)
	}
	if stats[0].CommTime != 0 {
		t.Fatalf("compute charged as comm: %v", stats[0].CommTime)
	}
}

func TestChargeCommBooksCommTime(t *testing.T) {
	m := DefaultModel()
	stats := Run(1, m, func(c *Comm) {
		c.ChargeComm(3, 1000)
	})
	want := 3*m.Latency + 1000*m.PerByte
	if math.Abs(stats[0].Time-want) > 1e-15 || math.Abs(stats[0].CommTime-want) > 1e-15 {
		t.Fatalf("time %v comm %v want %v", stats[0].Time, stats[0].CommTime, want)
	}
}

func TestSendCostsMatchModel(t *testing.T) {
	m := DefaultModel()
	stats := Run(2, m, func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, "x", 3000)
		} else {
			c.Recv(0)
		}
	})
	// Receiver's clock = message arrival = sender clock (0) + ts + tw·b.
	want := m.Latency + 3000*m.PerByte
	if math.Abs(stats[1].Time-want) > 1e-15 {
		t.Fatalf("receiver time %v want %v", stats[1].Time, want)
	}
	if stats[0].BytesSent != 3000 || stats[0].Messages != 1 {
		t.Fatalf("sender stats %+v", stats[0])
	}
}

func TestSyncCostSynchronises(t *testing.T) {
	stats := Run(3, DefaultModel(), func(c *Comm) {
		c.ChargeTime(float64(c.Rank()) * 1e-3)
		c.SyncCost(5e-4)
	})
	want := 2e-3 + 5e-4 // slowest rank + cost
	for _, s := range stats {
		if math.Abs(s.Time-want) > 1e-12 {
			t.Fatalf("rank %d time %v want %v", s.Rank, s.Time, want)
		}
	}
}

func TestReduceAndAllReduceSlice(t *testing.T) {
	p := 4
	outs := make([][]int64, p)
	Run(p, DefaultModel(), func(c *Comm) {
		outs[c.Rank()] = AllReduceSlice(c, []int64{int64(c.Rank()), 1}, 8, SumInt64)
		r := Reduce(c, int64(1), 8, SumInt64)
		if r != int64(p) {
			panic("reduce sum wrong")
		}
	})
	for r := 0; r < p; r++ {
		if outs[r][0] != 6 || outs[r][1] != 4 {
			t.Fatalf("rank %d: %v", r, outs[r])
		}
	}
}

func TestPhaseTimer(t *testing.T) {
	Run(1, DefaultModel(), func(c *Comm) {
		ph := c.StartPhase()
		c.ChargeTime(2e-3)
		c.ChargeComm(1, 0)
		total, comm := ph.Stop()
		if total < 2e-3 || comm <= 0 || comm > total {
			panic("phase timer accounting wrong")
		}
	})
}

func TestMaxHelpers(t *testing.T) {
	stats := []RankStats{{Time: 1, CommTime: 0.2}, {Time: 3, CommTime: 0.1}}
	if MaxTime(stats) != 3 || MaxCommTime(stats) != 0.2 {
		t.Fatal("max helpers wrong")
	}
}

func TestAsymmetricBcastCostDeterministic(t *testing.T) {
	// Root declares a payload size unknown to the others; repeated runs
	// must produce identical clocks (the collective charges the max
	// declared cost).
	run := func() float64 {
		stats := Run(4, DefaultModel(), func(c *Comm) {
			bytes := 0
			if c.Rank() == 0 {
				bytes = 100000
			}
			c.Bcast(0, "payload", bytes)
		})
		return MaxTime(stats)
	}
	a := run()
	for i := 0; i < 20; i++ {
		if b := run(); b != a {
			t.Fatalf("run %d: %v vs %v", i, b, a)
		}
	}
}

// ChargeTime advances the virtual clock by the given number of seconds
// of local computation (for costs not naturally expressed in ops).
func (c *Comm) ChargeTime(seconds float64) {
	c.state.clock += seconds
}
