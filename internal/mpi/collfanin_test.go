package mpi

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/geometry"
)

// collProbe is everything one rank observed from the mixed collective
// body below: every reduction payload type the pipeline uses, a string
// reduction, gathers, an AllToAllV, a Bcast, a sub-communicator
// reduction, and the rank's final RankStats.
type collProbe struct {
	sum   float64
	mx    float64
	vec   geometry.Vec2
	arr   [3]float64
	i64   int64
	i     int
	str   string // concatenation is order-sensitive
	gath  []float64
	gathV []int32
	a2a   []int32
	bcast int
	sub   float64
	stats RankStats
}

// collBody exercises the full collective surface with order-sensitive
// payloads (float sums pick up different rounding under any other
// combine order, string concat under any other rank order).
func collBody(p int, m Model) []collProbe {
	probes := make([]collProbe, p)
	stats := Run(p, m, func(c *Comm) {
		r := c.Rank()
		pr := &probes[r]
		pr.sum = AllReduce(c, 0.1*float64(r)+1e-12*float64(r*r), 8, SumFloat64)
		pr.mx = AllReduce(c, math.Sin(float64(r)), 8, MaxFloat64)
		pr.vec = AllReduce(c, geometry.Vec2{X: 0.3 * float64(r), Y: -0.7 / float64(r+1)}, 16,
			func(a, b geometry.Vec2) geometry.Vec2 { return geometry.Vec2{X: a.X + b.X, Y: a.Y + b.Y} })
		pr.arr = AllReduce(c, [3]float64{float64(r), 1.0 / float64(r+1), math.Cos(float64(r))}, 24,
			func(a, b [3]float64) [3]float64 { return [3]float64{a[0] + b[0], a[1] + b[1], a[2] + b[2]} })
		pr.i64 = Reduce(c, int64(r*r+1), 8, SumInt64)
		pr.i = AllReduce(c, r+1, 8, func(a, b int) int { return a ^ (b * 31) })
		pr.str = AllReduce(c, fmt.Sprintf("%x", r%16), 1, func(a, b string) string { return a + b })
		c.Barrier()
		pr.gath = AllGather(c, float64(r)*1.5, 8)
		pr.gathV = Concat(AllGatherV(c, make([]int32, r%3+1), 4))
		dest := make([][]int32, p)
		for d := 0; d < p; d++ {
			if (r+d)%3 == 0 && d != r {
				dest[d] = []int32{int32(r), int32(d)}
			}
		}
		for src, got := range allToAllParts(c, dest, 4) {
			if src != r && len(got) > 0 {
				pr.a2a = append(pr.a2a, got...)
			}
		}
		pr.bcast = c.Bcast(p/2, r*3, 8).(int)
		if sub := c.SubComm((p + 1) / 2); sub != nil {
			pr.sub = AllReduce(sub, 1.0/float64(r+2), 8, SumFloat64)
		}
		c.Barrier()
	})
	for r := range probes {
		probes[r].stats = stats[r]
	}
	return probes
}

// TestCollectiveWordPathMatchesBoxed pins that a fault plan changes
// nothing while no fault fires: a world with an empty plan must
// reproduce a fault-free world exactly — results compared through
// Float64bits, clocks and traffic through RankStats — at every
// communicator size the suite sweeps, up to P = 1024. The name is kept
// from when the two worlds took different payload paths (an inline
// word encoding and boxing through any); both now run the one typed
// rendezvous.
func TestCollectiveWordPathMatchesBoxed(t *testing.T) {
	planned := DefaultModel()
	planned.Faults = NewFaultPlan()
	for _, p := range []int{1, 4, 64, 256, 1024} {
		if p > 64 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			want := collBody(p, planned)
			got := collBody(p, DefaultModel())
			for r := range want {
				w, g := want[r], got[r]
				if math.Float64bits(w.sum) != math.Float64bits(g.sum) ||
					math.Float64bits(w.mx) != math.Float64bits(g.mx) ||
					math.Float64bits(w.sub) != math.Float64bits(g.sub) {
					t.Fatalf("rank %d float reductions differ: empty plan (%v,%v,%v) no plan (%v,%v,%v)",
						r, w.sum, w.mx, w.sub, g.sum, g.mx, g.sub)
				}
				if w.vec != g.vec || w.arr != g.arr || w.i64 != g.i64 || w.i != g.i ||
					w.str != g.str || w.bcast != g.bcast {
					t.Fatalf("rank %d reductions differ:\n empty plan %+v\n no plan %+v", r, w, g)
				}
				if !reflect.DeepEqual(w.gath, g.gath) || !reflect.DeepEqual(w.gathV, g.gathV) ||
					!reflect.DeepEqual(w.a2a, g.a2a) {
					t.Fatalf("rank %d gathers differ:\n empty plan %+v\n no plan %+v", r, w, g)
				}
				if w.stats != g.stats {
					t.Fatalf("rank %d stats differ:\n empty plan %+v\n no plan %+v", r, w.stats, g.stats)
				}
			}
		})
	}
}

// TestDeepPendingSamePeerOrder pins the mailbox contract the ring
// rewrite must preserve: messages from the same peer are received in
// send order even when a deep backlog of them is parked in the pending
// ring (routed there by an out-of-order receive) and further messages
// keep arriving in the mailbox while the backlog drains.
func TestDeepPendingSamePeerOrder(t *testing.T) {
	const n = 200 // far beyond the initial ring capacity: forces growth
	Run(3, DefaultModel(), func(c *Comm) {
		switch c.Rank() {
		case 0:
			for i := 0; i < n; i++ {
				c.Send(1, i, 8)
			}
			c.Barrier()
			for i := n; i < 2*n; i++ {
				c.Send(1, i, 8)
			}
		case 2:
			c.Barrier()
			c.Send(1, "go", 8)
		case 1:
			c.Barrier()
			// Receiving from rank 2 first drains the whole mailbox —
			// rank 0's backlog is routed into its pending ring.
			if got := c.Recv(2); got != "go" {
				t.Errorf("rank 1: expected signal from rank 2, got %v", got)
			}
			// The second batch from rank 0 lands in the mailbox while the
			// first drains from pending; order must still be global send
			// order.
			for i := 0; i < 2*n; i++ {
				if got := c.Recv(0).(int); got != i {
					t.Fatalf("rank 1: message %d arrived as %d (reordered)", i, got)
				}
			}
		}
	})
}

// TestPendingDroppedAfterDenseAllToAllV: a rank keeps no pending
// storage once its out-of-order backlog drains. At P = 64 every rank
// first sends one message to every peer in a seeded scrambled order and
// then, after a barrier, receives them in ascending source order: the
// first receive parks the whole backlog in pending rings, and draining
// them must leave pending nil. A dense AllToAllV, whose receives also
// run in ascending source order, must leave it nil as well.
func TestPendingDroppedAfterDenseAllToAllV(t *testing.T) {
	const p = 64
	parked := make([]int, p)
	nilAfterSends := make([]bool, p)
	nilAfterAllToAll := make([]bool, p)
	Run(p, DefaultModel(), func(c *Comm) {
		r := c.Rank()
		for _, d := range rand.New(rand.NewSource(int64(r))).Perm(p) {
			if d != r {
				c.Send(d, r, 8)
			}
		}
		c.Barrier()
		for src := 0; src < p; src++ {
			if src == r {
				continue
			}
			if got := c.Recv(src).(int); got != src {
				t.Errorf("rank %d: message from %d carried %d", r, src, got)
			}
			if parked[r] == 0 {
				parked[r] = len(c.state.pending)
			}
		}
		nilAfterSends[r] = c.state.pending == nil
		send := make([]int32, 0, 4*p)
		counts := make([]int32, p)
		for d := range counts {
			counts[d] = int32(1 + (r+d)%4)
			for k := int32(0); k < counts[d]; k++ {
				send = append(send, int32(r))
			}
		}
		got := AllToAllV(c, send, counts, 4)
		at := 0
		for src, n := range counts {
			if want := int32(1 + (src+r)%4); n != want {
				t.Errorf("rank %d: %d elements from %d, want %d", r, n, src, want)
			}
			for _, v := range got[at : at+int(n)] {
				if v != int32(src) {
					t.Errorf("rank %d: element %d in %d's block", r, v, src)
				}
			}
			at += int(n)
		}
		nilAfterAllToAll[r] = c.state.pending == nil
	})
	for r := 0; r < p; r++ {
		if parked[r] == 0 {
			t.Fatalf("rank %d: the scrambled backlog never reached the pending rings", r)
		}
		if !nilAfterSends[r] || !nilAfterAllToAll[r] {
			t.Fatalf("rank %d: pending not nil after its backlog drained (point-to-point %v, all-to-all %v)",
				r, nilAfterSends[r], nilAfterAllToAll[r])
		}
	}
}

// TestCollectiveSteadyStateAllocs pins the fan-in engine's headline
// property: after warm-up, collectives allocate nothing — on any rank,
// not just the caller's — whatever the payload type and whether or not
// the world carries a fault plan. A rendezvous that boxed one
// contribution per rank per collective (P allocations per op) would
// fail the threshold below by two orders of magnitude.
func TestCollectiveSteadyStateAllocs(t *testing.T) {
	const p = 64
	// The plan's one fault, a delay, fires at rank 0's first event: a
	// warm-up collective, where a delay has nothing to delay. The world
	// runs with a plan attached, and no fault fires in the measured
	// window.
	faulted := DefaultModel()
	faulted.Faults = NewFaultPlan().Delay(0, 0, 1e-3)
	floats := make([]float64, p)
	sumFloats := func(c *Comm) {
		floats[c.Rank()] = AllReduce(c, floats[c.Rank()]/p+float64(c.Rank()), 8, SumFloat64)
	}
	pairs := make([][2]int64, p)
	for _, tc := range []struct {
		name string
		m    Model
		step func(c *Comm)
	}{
		{"float64", DefaultModel(), sumFloats},
		{"fault-plan", faulted, sumFloats},
		{"[2]int64", DefaultModel(), func(c *Comm) {
			pairs[c.Rank()] = AllReduce(c, [2]int64{pairs[c.Rank()][1] + 1, int64(c.Rank())}, 16,
				func(a, b [2]int64) [2]int64 { return [2]int64{a[0] + b[0], a[1] ^ b[1]} })
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := steadyStateAllocs(p, 400, tc.m, tc.step); allocs > 200 {
				t.Fatalf("steady-state collectives allocated %d times over %d ops (want ~0)", allocs, 2*400)
			}
		})
	}
}

// steadyStateAllocs runs step and a Barrier ops times on p ranks, after
// a warm-up, and returns the world-wide mallocs of those rounds. At
// p = 64 and 400 rounds, reductions that boxed their contributions
// would make at least 25600 allocations; the fan-in engine's budget is
// runtime noise.
func steadyStateAllocs(p, ops int, m Model, step func(c *Comm)) uint64 {
	var m0, m1 runtime.MemStats
	Run(p, m, func(c *Comm) {
		for i := 0; i < 4; i++ { // warm the rendezvous and its slabs
			step(c)
			c.Barrier()
		}
		c.Barrier()
		if c.Rank() == 0 {
			// Peers are parked in the barrier below: quiescent.
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
		c.Barrier()
		for i := 0; i < ops; i++ {
			step(c)
			c.Barrier()
		}
		if c.Rank() == 0 {
			runtime.ReadMemStats(&m1)
		}
		c.Barrier()
	})
	return m1.Mallocs - m0.Mallocs
}
