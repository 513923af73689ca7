package mpi

import (
	"fmt"
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
		c.SyncCost(Flat(5e-4, 0, 0))
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

// oracleModels are the machine constants the cost oracles sweep. They
// are read through variables, as the runtime reads them: with untyped
// constants Go would fold the reference expressions exactly at compile
// time and report false mismatches.
var oracleModels = []Model{DefaultModel(), {Latency: 7.3e-6, PerByte: 1.7e-9, PerPeer: 0.9e-6}}

// oraclePayloads are the per-collective payload sizes the oracles sweep.
var oraclePayloads = []int{0, 1, 4, 7, 8, 12, 24, 100, 333, 1000, 4096, 12345, 20000}

// oracleBackoffs are the retransmission backoffs the send oracle adds
// to a hop: none, one latency-sized timeout, and summed timeouts.
var oracleBackoffs = []float64{0, 2.5e-6, 3.1e-5, 1.7e-4}

// sameCost fails unless got charges exactly the reference total and
// records exactly its terms and payload; at names the case.
func sameCost(t *testing.T, at func() string, got Cost, total, ts, tw, to float64, bytes int64) {
	t.Helper()
	bits := math.Float64bits
	if bits(got.total) != bits(total) || bits(got.ts) != bits(ts) || bits(got.tw) != bits(tw) ||
		bits(got.to) != bits(to) || got.bytes != bytes {
		t.Fatalf("%s: got total %v ts %v tw %v to %v bytes %d, want %v %v %v %v %d",
			at(), got.total, got.ts, got.tw, got.to, got.bytes, total, ts, tw, to, bytes)
	}
}

// TestCostCompositionsBitExact holds every runtime charge built from
// Cost constructors to the open-coded expression it replaced: the same
// total bits, the same ts/tw/to bits and the same payload (for a
// point-to-point send, the same charged bits), over every
// communicator size up to 4096 (powers of two and not) and a spread of
// payloads.
func TestCostCompositionsBitExact(t *testing.T) {
	for _, m := range oracleModels {
		for _, b := range oraclePayloads {
			for _, backoff := range oracleBackoffs {
				if got, want := m.sendCost(b, backoff), m.Latency+m.PerByte*float64(b)+backoff; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Send model %+v bytes=%d backoff=%v: charged %v, want %v", m, b, backoff, got, want)
				}
			}
		}
		for p := 1; p <= 4096; p++ {
			lg := Log2Ceil(p)
			for _, b := range oraclePayloads {
				at := func(op string) func() string {
					return func() string { return fmt.Sprintf("%s model %+v P=%d bytes=%d", op, m, p, b) }
				}
				sameCost(t, at("AllReduce"), m.allReduceCost(p, b),
					2*(m.Latency+m.PerByte*float64(b))*lg, 2*m.Latency*lg, 2*m.PerByte*float64(b)*lg, 0, int64(b))
				sameCost(t, at("Bcast"), m.treeCost(p, b),
					(m.Latency+m.PerByte*float64(b))*lg, m.Latency*lg, m.PerByte*float64(b)*lg, 0, int64(b))
				sameCost(t, at("AllGatherWith"), m.allGatherCost(p, b),
					m.Latency*lg+m.PerByte*float64(b)*float64(p-1), m.Latency*lg, m.PerByte*float64(b)*float64(p-1), 0, int64(b))
				total := b * p
				sameCost(t, at("AllGatherVWith"), m.allGatherVCost(p, total),
					m.Latency*lg+m.PerByte*float64(total), m.Latency*lg, m.PerByte*float64(total), 0, int64(total))
				for _, msgs := range []int{0, 1, 4, 8} {
					sameCost(t, at(fmt.Sprintf("ChargeComm(%d messages)", msgs)), m.commCost(msgs, total),
						float64(msgs)*m.Latency+float64(total)*m.PerByte, float64(msgs)*m.Latency, float64(total)*m.PerByte, 0, int64(total))
				}
			}
			at := func(op string) func() string {
				return func() string { return fmt.Sprintf("%s model %+v P=%d", op, m, p) }
			}
			total := m.Latency * lg
			sameCost(t, at("Barrier"), m.treeCost(p, 0), total, total, 0, 0, 0)
			sameCost(t, at("exchangeCounts"), m.countsCost(p),
				m.Latency*lg+m.PerByte*4*float64(p)+m.PerPeer*float64(p),
				m.Latency*lg, m.PerByte*4*float64(p), m.PerPeer*float64(p), 4*int64(p))
			sameCost(t, at("Peers"), m.Peers(p), m.PerPeer*float64(p), 0, 0, m.PerPeer*float64(p), 0)
		}
	}
}

// TestLog2CeilMatchesLoop: Log2Ceil agrees with ⌈log2 n⌉ counted by a
// doubling loop over every n up to 2²² and around every power of two
// beyond it up to 2⁴⁰.
func TestLog2CeilMatchesLoop(t *testing.T) {
	loop := func(n int) float64 {
		l := 0.0
		for v := 1; v < n; v <<= 1 {
			l++
		}
		return l
	}
	check := func(n int) {
		if got, want := Log2Ceil(n), loop(n); got != want {
			t.Fatalf("Log2Ceil(%d) = %v, want %v", n, got, want)
		}
	}
	for n := -1; n <= 1<<22; n++ {
		check(n)
	}
	for k := 22; k <= 40; k++ {
		for _, d := range []int{-1, 0, 1} {
			check(1<<k + d)
		}
	}
}
