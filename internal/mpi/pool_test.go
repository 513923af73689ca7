package mpi

import (
	"testing"

	"repro/internal/geometry"
)

func TestSendVecRecvVecRoundTrip(t *testing.T) {
	const p = 3
	got := make([][]geometry.Vec2, p)
	pool := NewVecPool[geometry.Vec2]()
	Run(p, DefaultModel(), func(c *Comm) {
		next := (c.Rank() + 1) % p
		prev := (c.Rank() + p - 1) % p
		buf := pool.Get(4)
		for i := range buf.Data {
			buf.Data[i] = geometry.Vec2{X: float64(c.Rank()), Y: float64(i)}
		}
		SendVec(c, next, buf, 16)
		in := RecvVec[geometry.Vec2](c, prev)
		out := make([]geometry.Vec2, len(in.Data))
		copy(out, in.Data)
		in.Release()
		got[c.Rank()] = out
	})
	for r := 0; r < p; r++ {
		prev := (r + p - 1) % p
		for i, v := range got[r] {
			want := geometry.Vec2{X: float64(prev), Y: float64(i)}
			if v != want {
				t.Fatalf("rank %d slot %d: got %v want %v", r, i, v, want)
			}
		}
	}
}

// TestVecPoolReusesBacking: a released buffer's backing array serves
// the next Get that fits it. The race detector makes sync.Pool.Put drop
// a random quarter of its items by design, so race builds ask for at
// least one reuse within a bounded number of rounds instead of on the
// first attempt.
func TestVecPoolReusesBacking(t *testing.T) {
	pool := NewVecPool[int32]()
	rounds := 1
	if raceEnabled {
		rounds = 32
	}
	for i := 0; i < rounds; i++ {
		b := pool.Get(8)
		first := &b.Data[0]
		b.Release()
		b2 := pool.Get(4) // smaller fits the pooled capacity
		if len(b2.Data) != 4 {
			t.Fatalf("len = %d, want 4", len(b2.Data))
		}
		reused := &b2.Data[0] == first
		b2.Release()
		if reused {
			return
		}
	}
	t.Fatalf("pool did not reuse the released backing array in %d rounds", rounds)
}

// TestSendVecSteadyStateAllocs asserts the typed send fast path is
// allocation-free: with prefilled buffers and room in the receiver's
// inbox (capacity 2P+64 covers rounds+1 outstanding messages), SendVec
// must not allocate at all — the *VecBuf payload converts to `any`
// without boxing and the non-blocking delivery skips the watchdog's
// waitInfo snapshot. The receiver drains afterwards, exercising the
// non-blocking receive path, and releases every buffer back to the
// pool.
func TestSendVecSteadyStateAllocs(t *testing.T) {
	const rounds = 50 // rounds+1 sends must fit the inbox
	var avg float64
	var drained int
	Run(2, DefaultModel(), func(c *Comm) {
		if c.Rank() == 0 {
			bufs := make([]*VecBuf[float64], rounds+1)
			for i := range bufs {
				bufs[i] = Float64Bufs.Get(64)
				for j := range bufs[i].Data {
					bufs[i].Data[j] = float64(i + j)
				}
			}
			c.Barrier()
			i := 0
			// AllocsPerRun calls the function rounds+1 times (one
			// warm-up run before the measured ones).
			avg = testing.AllocsPerRun(rounds, func() {
				SendVec(c, 1, bufs[i], 8)
				i++
			})
			c.Barrier()
		} else {
			c.Barrier()
			c.Barrier() // all messages are in the inbox once rank 0 joins
			for i := 0; i < rounds+1; i++ {
				in := RecvVec[float64](c, 0)
				drained += len(in.Data)
				in.Release()
			}
		}
	})
	// The only allocation that may leak into the window is the other
	// rank's one-off barrier bookkeeping, amortised over all rounds.
	if avg > 0.5 {
		t.Errorf("steady-state SendVec: %.2f allocs per send, want 0", avg)
	}
	if drained != (rounds+1)*64 {
		t.Errorf("receiver drained %d elements, want %d", drained, (rounds+1)*64)
	}
}

// TestNeighborExchangeOneMessagePerPartner checks the coalescing
// contract: each rank sends exactly one point-to-point message per
// partner per exchange, regardless of how many payload kinds the caller
// packed into the buffer.
func TestNeighborExchangeOneMessagePerPartner(t *testing.T) {
	const p = 4
	sums := make([]float64, p)
	stats := Run(p, DefaultModel(), func(c *Comm) {
		partners := []int{(c.Rank() + 1) % p, (c.Rank() + p - 1) % p}
		if partners[0] > partners[1] {
			partners[0], partners[1] = partners[1], partners[0]
		}
		bufs := make([]*VecBuf[float64], len(partners))
		for i := range bufs {
			// Two payload kinds packed into one message: a "cell" part
			// and a "coordinate" part.
			bufs[i] = Float64Bufs.Get(6)
			for j := range bufs[i].Data {
				bufs[i].Data[j] = float64(c.Rank()*10 + j)
			}
		}
		total := 0.0
		NeighborExchange(c, partners, bufs, 8, func(_, partner int, data []float64) {
			for _, v := range data {
				total += v
			}
		})
		sums[c.Rank()] = total
	})
	for r, s := range stats {
		if s.Messages != 2 {
			t.Errorf("rank %d sent %d messages, want 2 (one per partner)", r, s.Messages)
		}
		if s.BytesSent != 2*6*8 {
			t.Errorf("rank %d sent %d bytes, want %d", r, s.BytesSent, 2*6*8)
		}
	}
	for r, total := range sums {
		next, prev := (r+1)%p, (r+p-1)%p
		want := float64(next*10*6+0+1+2+3+4+5) + float64(prev*10*6+0+1+2+3+4+5)
		if total != want {
			t.Errorf("rank %d: sum %g want %g", r, total, want)
		}
	}
}

func ringPartners(rank, p int) []int {
	a, b := (rank+1)%p, (rank+p-1)%p
	if a == b {
		return []int{a}
	}
	if a > b {
		a, b = b, a
	}
	return []int{a, b}
}

// TestTruncateFaultOnVecBuf checks that TruncatePayload reaches pooled
// payloads: the receiver sees the first half of the data only.
func TestTruncateFaultOnVecBuf(t *testing.T) {
	model := DefaultModel()
	model.Faults = NewFaultPlan().Truncate(0, 0)
	var gotLen int
	pool := NewVecPool[int32]()
	Run(2, model, func(c *Comm) {
		if c.Rank() == 0 {
			buf := pool.Get(8)
			for i := range buf.Data {
				buf.Data[i] = int32(i)
			}
			SendVec(c, 1, buf, 4)
		} else {
			in := RecvVec[int32](c, 0)
			gotLen = len(in.Data)
			in.Release()
		}
	})
	if gotLen != 4 {
		t.Fatalf("truncated payload has %d elements, want 4", gotLen)
	}
}
