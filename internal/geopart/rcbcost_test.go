package geopart

import (
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// ulps is the distance between two floats in units in the last place.
func ulps(a, b float64) uint64 {
	x, y := math.Float64bits(a), math.Float64bits(b)
	if x > y {
		return x - y
	}
	return y - x
}

// TestCostCompositionsBitExact holds the per-level RCB charge to the
// open-coded expression it replaced: each SyncCost must charge exactly
// the reference total and record exactly its ts and to terms. The
// recursion depth enters only through the active group size, so every
// group size up to 4096 is swept, against a spread of bisection
// iteration counts and local vertex counts. The tw term is scaled by
// the iteration count and the tree depth in another order than before,
// so it may round differently: by at most 3 ulps over this sweep, and
// the test allows 4. The model constants are read through variables, as
// chargeZoltanRCB reads them.
func TestCostCompositionsBitExact(t *testing.T) {
	models := []mpi.Model{mpi.DefaultModel(), {Latency: 7.3e-6, PerByte: 1.7e-9, PerPeer: 0.9e-6}}
	moved := 0
	for _, m := range models {
		for _, iters := range []int{8, 9, 11, 13, 17, 20, 24, 31} {
			var want [][4]float64
			rec := trace.New()
			traced := m
			traced.Trace = rec
			mpi.Run(1, traced, func(c *mpi.Comm) {
				for groupP := 2; groupP <= 4096; groupP++ {
					lg := mpi.Log2Ceil(groupP)
					for _, nOwn := range []int{0, 1, 37, 1000, 65536, 1 << 20} {
						c.SyncCost(rcbLevelCost(&m, iters, groupP, nOwn))
						median := float64(iters) * (m.Latency + m.PerByte*24) * lg
						migr := 2*m.Latency + m.PerByte*float64(nOwn)*20 + 2*m.PerPeer
						want = append(want, [4]float64{median + migr,
							float64(iters)*m.Latency*lg + 2*m.Latency,
							float64(iters)*m.PerByte*24*lg + m.PerByte*float64(nOwn)*20,
							2 * m.PerPeer})
					}
				}
			})
			var got [][4]float64
			for _, ev := range rec.Ranks()[0].Events() {
				if ev.Kind == trace.KindColl {
					got = append(got, [4]float64{ev.Comm, ev.TS, ev.TW, ev.TO})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("recorded %d charges, want %d", len(got), len(want))
			}
			for i := range want {
				g, w := got[i], want[i]
				if ulps(g[0], w[0]) != 0 || ulps(g[1], w[1]) != 0 || ulps(g[3], w[3]) != 0 || ulps(g[2], w[2]) > 4 {
					t.Fatalf("model %+v iters %d charge %d: got total/ts/tw/to %v, want %v", m, iters, i, g, w)
				}
				if g[2] != w[2] {
					moved++
				}
			}
		}
	}
	t.Logf("tw rounded differently in %d charges", moved)
}
