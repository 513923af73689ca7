package mpi

import (
	"runtime"
	"testing"
	"testing/quick"
)

func TestAllReduceSum(t *testing.T) {
	for _, p := range []int{1, 2, 7, 32} {
		results := make([]int64, p)
		Run(p, DefaultModel(), func(c *Comm) {
			results[c.Rank()] = AllReduce(c, int64(c.Rank()+1), 8, SumInt64)
		})
		want := int64(p * (p + 1) / 2)
		for r, got := range results {
			if got != want {
				t.Fatalf("p=%d rank %d: got %d want %d", p, r, got, want)
			}
		}
	}
}

func TestAllGatherOrder(t *testing.T) {
	p := 9
	var out [][]int
	outs := make([][]int, p)
	Run(p, DefaultModel(), func(c *Comm) {
		outs[c.Rank()] = AllGather(c, c.Rank()*10, 8)
	})
	out = outs
	for r := 0; r < p; r++ {
		for i, v := range out[r] {
			if v != i*10 {
				t.Fatalf("rank %d slot %d: %d", r, i, v)
			}
		}
	}
}

func TestAllGatherV(t *testing.T) {
	p := 5
	flat := make([][]int32, p)
	Run(p, DefaultModel(), func(c *Comm) {
		mine := make([]int32, c.Rank())
		for i := range mine {
			mine[i] = int32(c.Rank())
		}
		flat[c.Rank()] = Concat(AllGatherV(c, mine, 4))
	})
	// Expected: 0 zeros, 1 one, 2 twos... concatenated.
	want := 0 + 1 + 2 + 3 + 4
	for r := 0; r < p; r++ {
		if len(flat[r]) != want {
			t.Fatalf("rank %d: len %d want %d", r, len(flat[r]), want)
		}
	}
}

func TestSendRecvAndOrdering(t *testing.T) {
	// Messages from one sender must arrive in order; interleaved
	// senders must match by source.
	got := make([]int, 0, 4)
	Run(3, DefaultModel(), func(c *Comm) {
		switch c.Rank() {
		case 1:
			c.Send(0, 10, 4)
			c.Send(0, 11, 4)
		case 2:
			c.Send(0, 20, 4)
			c.Send(0, 21, 4)
		case 0:
			// Receive rank 2 first even though rank 1 may have sent
			// earlier: matching is by source.
			got = append(got, c.Recv(2).(int), c.Recv(1).(int), c.Recv(1).(int), c.Recv(2).(int))
		}
	})
	want := []int{20, 10, 11, 21}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestAllToAllV(t *testing.T) {
	p := 6
	ok := make([]bool, p)
	Run(p, DefaultModel(), func(c *Comm) {
		// Send r copies of my rank to rank r, in one flat buffer.
		var send []int32
		counts := make([]int32, p)
		for r := 0; r < p; r++ {
			for k := 0; k < r; k++ {
				send = append(send, int32(c.Rank()))
			}
			counts[r] = int32(r)
		}
		got := AllToAllV(c, send, counts, 4)
		fine := len(got) == p*c.Rank()
		for src := 0; src < p; src++ {
			if counts[src] != int32(c.Rank()) {
				fine = false
			}
		}
		for i, v := range got {
			if v != int32(i/c.Rank()) {
				fine = false
			}
		}
		ok[c.Rank()] = fine
	})
	for r, v := range ok {
		if !v {
			t.Fatalf("rank %d saw wrong alltoall payload", r)
		}
	}
}

// allToAllParts runs AllToAllV on per-destination slices and splits the
// flat result by source: dest[r] goes to rank r, and the result's entry
// src is what src sent here (nil when nothing came).
func allToAllParts[T any](c *Comm, dest [][]T, bytesPerElem int) [][]T {
	counts := make([]int32, len(dest))
	var send []T
	for r, d := range dest {
		counts[r] = int32(len(d))
		send = append(send, d...)
	}
	flat := AllToAllV(c, send, counts, bytesPerElem)
	out := make([][]T, len(dest))
	for src, n := range counts {
		if n > 0 {
			out[src], flat = flat[:n:n], flat[n:]
		}
	}
	return out
}

func TestSubCommCollectives(t *testing.T) {
	p := 8
	sums := make([]int64, p)
	Run(p, DefaultModel(), func(c *Comm) {
		sub := c.SubComm(3)
		if c.Rank() < 3 {
			if sub == nil {
				t.Error("member got nil subcomm")
				return
			}
			sums[c.Rank()] = AllReduce(sub, int64(1), 8, SumInt64)
		} else if sub != nil {
			t.Error("non-member got subcomm")
		}
	})
	for r := 0; r < 3; r++ {
		if sums[r] != 3 {
			t.Fatalf("rank %d: %d", r, sums[r])
		}
	}
}

func TestClocksAdvanceAndSync(t *testing.T) {
	p := 4
	stats := Run(p, DefaultModel(), func(c *Comm) {
		// Rank 0 computes for 1ms; a barrier must drag everyone to at
		// least that time.
		if c.Rank() == 0 {
			c.ChargeTime(1e-3)
		}
		c.Barrier()
	})
	for _, s := range stats {
		if s.Time < 1e-3 {
			t.Fatalf("rank %d time %v below barrier sync", s.Rank, s.Time)
		}
	}
}

func TestCommTimeExcludesIdleWait(t *testing.T) {
	// A rank that waits a long virtual time for a barrier should not
	// book that wait as communication.
	stats := Run(2, DefaultModel(), func(c *Comm) {
		if c.Rank() == 0 {
			c.ChargeTime(5e-3)
		}
		c.Barrier()
	})
	if stats[1].CommTime > 1e-4 {
		t.Fatalf("idle wait booked as comm: %v", stats[1].CommTime)
	}
}

func TestDeterministicClocks(t *testing.T) {
	run := func() []float64 {
		stats := Run(8, DefaultModel(), func(c *Comm) {
			for i := 0; i < 20; i++ {
				v := AllReduce(c, float64(c.Rank()), 8, SumFloat64)
				_ = v
				if c.Rank() > 0 {
					c.Send(c.Rank()-1, i, 8)
				}
				if c.Rank() < c.Size()-1 {
					c.Recv(c.Rank() + 1)
				}
				c.Charge(float64(c.Rank() * 10))
			}
		})
		out := make([]float64, len(stats))
		for i, s := range stats {
			out[i] = s.Time
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestGridProperties(t *testing.T) {
	f := func(raw uint8) bool {
		p := int(raw)%100 + 1
		g := GridFor(p)
		if g.Size() != p {
			return false
		}
		for r := 0; r < p; r++ {
			if g.RankAt(g.RowOf(r), g.ColOf(r)) != r {
				return false
			}
			for _, nb := range g.Neighbors(r) {
				if dr, dc := g.RowOf(r)-g.RowOf(nb), g.ColOf(r)-g.ColOf(nb); dr*dr+dc*dc != 1 {
					return false
				}
				found := false
				for _, back := range g.Neighbors(nb) {
					if back == r {
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGridForNearSquare(t *testing.T) {
	cases := map[int][2]int{1: {1, 1}, 4: {2, 2}, 8: {2, 4}, 16: {4, 4}, 1024: {32, 32}, 12: {3, 4}}
	for p, want := range cases {
		g := GridFor(p)
		if g.Rows != want[0] || g.Cols != want[1] {
			t.Fatalf("GridFor(%d) = %dx%d, want %dx%d", p, g.Rows, g.Cols, want[0], want[1])
		}
	}
}

func TestHaloExchange(t *testing.T) {
	p := 6
	grid := GridFor(p) // 2x3
	ok := make([]bool, p)
	Run(p, DefaultModel(), func(c *Comm) {
		nbrs := grid.Neighbors(c.Rank())
		payload := make([]any, len(nbrs))
		bytes := make([]int, len(nbrs))
		for i := range nbrs {
			payload[i] = c.Rank() * 100
			bytes[i] = 8
		}
		got := HaloExchange(c, grid, payload, bytes)
		fine := true
		for i, nb := range nbrs {
			if got[i].(int) != nb*100 {
				fine = false
			}
		}
		ok[c.Rank()] = fine
	})
	for r, v := range ok {
		if !v {
			t.Fatalf("rank %d: halo mismatch", r)
		}
	}
}

func TestBcast(t *testing.T) {
	p := 5
	got := make([]string, p)
	Run(p, DefaultModel(), func(c *Comm) {
		var payload string
		if c.Rank() == 2 {
			payload = "hello"
		}
		got[c.Rank()] = c.Bcast(2, payload, len(payload)).(string)
	})
	for r, v := range got {
		if v != "hello" {
			t.Fatalf("rank %d: %q", r, v)
		}
	}
}

func TestRunPanicsPropagate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic to propagate")
		}
	}()
	Run(3, DefaultModel(), func(c *Comm) {
		c.Barrier()
		if c.Rank() == 1 {
			panic("boom")
		}
		// Other ranks finish normally; Run must still re-raise.
	})
}

// TestCommWorkersFromModel: every Comm of a world, sub-communicators
// included, reports its model's host width, and a zero width resolves
// to GOMAXPROCS when the world starts. Kernels fork by this value, so a
// test that runs two widths side by side compares two different widths.
func TestCommWorkersFromModel(t *testing.T) {
	for _, w := range []int{0, 1, 3, 8} {
		want := w
		if w == 0 {
			want = runtime.GOMAXPROCS(0)
		}
		m := DefaultModel()
		m.Workers = w
		got := make([]int, 4)
		Run(4, m, func(c *Comm) {
			got[c.Rank()] = c.Workers()
			if sub := c.SubComm(2); sub != nil && sub.Workers() != c.Workers() {
				panic("sub-communicator width differs from its world's")
			}
		})
		for r, g := range got {
			if g != want {
				t.Fatalf("Model.Workers=%d: rank %d reports width %d, want %d", w, r, g, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a negative Model.Workers started a world")
		}
	}()
	m := DefaultModel()
	m.Workers = -1
	Run(1, m, func(*Comm) {})
}

// TestModelOrDefault: a model that sets nothing but its host width is
// the default machine at that width; any other model stands as given.
func TestModelOrDefault(t *testing.T) {
	want := DefaultModel()
	if got := (Model{}).OrDefault(); got != want {
		t.Fatalf("zero model: got %+v, want %+v", got, want)
	}
	want.Workers = 3
	if got := (Model{Workers: 3}).OrDefault(); got != want {
		t.Fatalf("width-only model: got %+v, want %+v", got, want)
	}
	own := Model{Latency: 1e-6, Workers: 2}
	if got := own.OrDefault(); got != own {
		t.Fatalf("explicit model replaced: got %+v, want %+v", got, own)
	}
}

// opHaloExchange is HaloExchange's interned op name (see internOp).
var opHaloExchange = internOp("HaloExchange")

// HaloExchange sends payload[i] to each neighbour i of rank (as listed
// by Neighbors) and returns the payloads received from them, in the
// same order. All ranks of the communicator must call it together.
// bytes[i] is the modeled size of payload[i].
func HaloExchange(c *Comm, g Grid, payload []any, bytes []int) []any {
	nbrs := g.Neighbors(c.Rank())
	if len(payload) != len(nbrs) || len(bytes) != len(nbrs) {
		panic("mpi: HaloExchange payload count must match neighbour count")
	}
	for i, nb := range nbrs {
		c.sendOp(nb, payload[i], bytes[i], opHaloExchange)
	}
	out := make([]any, len(nbrs))
	for i, nb := range nbrs {
		out[i] = c.recvOp(nb, opHaloExchange)
	}
	return out
}

// opReduce is Reduce's interned op name (see internOp).
var opReduce = internOp("Reduce")

// Reduce is AllReduce delivered to all ranks but charged at reduce-tree
// cost (Latency + PerByte·bytes)·log2(P); non-root ranks receiving the
// value costs nothing extra in the model, matching the paper's use of
// reductions whose results every processor ends up needing.
func Reduce[T any](c *Comm, val T, bytes int, op func(a, b T) T) T {
	return reduce(c, opReduce, val, op, c.world.model.treeCost(c.size, bytes))
}

// AllGather collects one value per rank, returned in rank order to
// every rank. Cost: Latency·log2(P) + PerByte·(P-1)·bytes (ring).
func AllGather[T any](c *Comm, val T, bytes int) []T {
	return AllGatherWith(c, val, bytes, func(vals []T) []T { return vals })
}

// AllGatherV collects a variable-length slice per rank; every rank
// receives the contributions in rank order (returned per-rank to allow
// offset recovery). bytesPerElem sizes elements; the modeled cost uses
// the true total payload, which requires the combine callback, so the
// cost is charged as an extra clock adjustment inside the collective:
// Latency·log2(P) + PerByte·totalBytes.
func AllGatherV[T any](c *Comm, vals []T, bytesPerElem int) [][]T {
	return AllGatherVWith(c, vals, bytesPerElem, func(parts [][]T) [][]T { return parts })
}

// MaxFloat64 and SumFloat64 are common AllReduce operators.
func MaxFloat64(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// SumFloat64 returns a + b.
func SumFloat64(a, b float64) float64 { return a + b }
