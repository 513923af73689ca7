package baseline

import (
	"math"
	"testing"

	"repro/internal/mpi"
	"repro/internal/trace"
)

// TestCostCompositionsBitExact holds Pt-Scotch's fold-with-duplication
// charge to the open-coded expression it replaced: each SyncCost must
// charge exactly the reference total and record exactly its ts/tw/to
// terms, for every communicator size up to 4096 and a spread of level
// sizes. The model constants are read through variables, as refineLevel
// reads them.
func TestCostCompositionsBitExact(t *testing.T) {
	models := []mpi.Model{mpi.DefaultModel(), {Latency: 7.3e-6, PerByte: 1.7e-9, PerPeer: 0.9e-6}}
	for _, m := range models {
		var want [][4]float64
		rec := trace.New()
		traced := m
		traced.Trace = rec
		mpi.Run(1, traced, func(c *mpi.Comm) {
			for p := 1; p <= 4096; p++ {
				stages := mpi.Log2Ceil(p)
				for _, n := range []int{0, 1, 799, 800, 12345, 1 << 20, 16777217} {
					c.SyncCost(foldCost(&m, p, n))
					want = append(want, [4]float64{
						m.Latency*stages*stages + m.PerByte*6*float64(n)*stages/2,
						m.Latency * stages * stages, m.PerByte * 6 * float64(n) * stages / 2, 0})
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
			for k := range want[i] {
				if math.Float64bits(got[i][k]) != math.Float64bits(want[i][k]) {
					t.Fatalf("model %+v charge %d: got total/ts/tw/to %v, want %v", m, i, got[i], want[i])
				}
			}
		}
	}
}
