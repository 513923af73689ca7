package baseline

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// mustPartition is PartitionChecked for tests: a returned error fails t.
func mustPartition(t testing.TB, g *graph.Graph, p int, cfg Config) *Result {
	t.Helper()
	res, err := PartitionChecked(g, p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBaselinesGrid checks both baselines produce valid, balanced,
// sensible bisections across rank counts.
func TestBaselinesGrid(t *testing.T) {
	g := gen.Grid2D(48, 48)
	for _, cfg := range []Config{ParMetisLike(1), PtScotchLike(1)} {
		for _, p := range []int{1, 4, 16} {
			res := mustPartition(t, g.G, p, cfg)
			if got := graph.CutSize(g.G, res.Part); got != res.Cut {
				t.Fatalf("%s p=%d: cut mismatch %d vs %d", label(cfg), p, res.Cut, got)
			}
			if res.Imbalance > 0.06 {
				t.Fatalf("%s p=%d: imbalance %.3f", label(cfg), p, res.Imbalance)
			}
			if res.Cut <= 0 || res.Cut > 400 {
				t.Fatalf("%s p=%d: implausible cut %d", label(cfg), p, res.Cut)
			}
			if res.Total <= 0 || res.Comm > res.Total {
				t.Fatalf("%s p=%d: bad timing total=%v comm=%v", label(cfg), p, res.Total, res.Comm)
			}
		}
	}
}

// TestPtScotchBeatsParMetisOnQuality: over a few graphs, the
// quality-biased configuration should cut no worse on average.
func TestPtScotchBeatsParMetisOnQuality(t *testing.T) {
	graphs := []*gen.Generated{
		gen.Grid2D(40, 60),
		gen.DelaunayRandom(4000, 11),
		gen.RandomGeometric(3000, 0.035, 5),
	}
	var pmSum, ptsSum int64
	for _, g := range graphs {
		pm := mustPartition(t, g.G, 8, ParMetisLike(3))
		pts := mustPartition(t, g.G, 8, PtScotchLike(3))
		pmSum += pm.Cut
		ptsSum += pts.Cut
	}
	if ptsSum > pmSum*11/10 {
		t.Fatalf("Pt-Scotch-like cuts (%d) should not be >10%% worse than ParMetis-like (%d)", ptsSum, pmSum)
	}
}

// TestBaselineDeterminism: repeated runs must agree bit-for-bit.
func TestBaselineDeterminism(t *testing.T) {
	g := gen.DelaunayRandom(3000, 2)
	a := mustPartition(t, g.G, 8, PtScotchLike(7))
	b := mustPartition(t, g.G, 8, PtScotchLike(7))
	if a.Cut != b.Cut || a.Total != b.Total {
		t.Fatalf("nondeterministic: cut %d/%d total %v/%v", a.Cut, b.Cut, a.Total, b.Total)
	}
	for i := range a.Part {
		if a.Part[i] != b.Part[i] {
			t.Fatalf("partition differs at vertex %d", i)
		}
	}
}

// TestBaselineEmptyGraph: both baselines partition the empty graph
// into the empty partition, at one rank and at several.
func TestBaselineEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	for _, cfg := range []Config{ParMetisLike(3), PtScotchLike(3)} {
		for _, p := range []int{1, 4} {
			res := mustPartition(t, g, p, cfg)
			if len(res.Part) != 0 || res.Cut != 0 || res.Imbalance != 0 {
				t.Fatalf("p=%d: part %v cut %d imbalance %v, want the empty partition", p, res.Part, res.Cut, res.Imbalance)
			}
		}
	}
}

// TestBaselineGolden pins both baselines end to end: the cut, the
// imbalance bits, the bits of the modeled Total and Comm, and an FNV-1a
// hash of the part vector, recorded on a 64×64 grid at P ∈ {1, 4, 16}.
// The coarsest bisection's FM polish and Pt-Scotch's per-level band FM
// both solve through refine, so a drift in either shows here.
func TestBaselineGolden(t *testing.T) {
	g := gen.Grid2D(64, 64)
	for _, tc := range []struct {
		cfg              Config
		p                int
		cut              int64
		imb, total, comm uint64
		hash             uint64
	}{
		{ParMetisLike(1), 1, 85, 0x3fa6000000000000, 0x3f51045268b94220, 0x3f3f13838eef075e, 0xc899cd1837cfba35},
		{ParMetisLike(1), 4, 85, 0x3fa6000000000000, 0x3f5745a5bf555f9b, 0x3f5464319d4ee26c, 0xc899cd1837cfba35},
		{ParMetisLike(1), 16, 87, 0x3fa5400000000000, 0x3f61e93b64d25f06, 0x3f61475f5e8e168a, 0xa46753c74f22c34},
		{PtScotchLike(1), 1, 74, 0x3fa9800000000000, 0x3f599099b19297af, 0x3f44e7871a06829e, 0x114005e367bf7865},
		{PtScotchLike(1), 4, 74, 0x3fa9800000000000, 0x3f61dd5f4acd05a2, 0x3f5db78a77eb01b0, 0x114005e367bf7865},
		{PtScotchLike(1), 16, 75, 0x3fa8000000000000, 0x3f6bce05993378be, 0x3f69f6812e175a73, 0x4d66d8f51cb672c5},
	} {
		res := mustPartition(t, g.G, tc.p, tc.cfg)
		h := fnv.New64a()
		binary.Write(h, binary.LittleEndian, res.Part)
		imb := math.Float64bits(res.Imbalance)
		total, comm := math.Float64bits(res.Total), math.Float64bits(res.Comm)
		if res.Cut != tc.cut || imb != tc.imb || h.Sum64() != tc.hash {
			t.Errorf("%s P=%d: partition drifted: cut %d imbalance %#x hash %#x, want %d %#x %#x",
				label(tc.cfg), tc.p, res.Cut, imb, h.Sum64(), tc.cut, tc.imb, tc.hash)
		}
		if total != tc.total || comm != tc.comm {
			t.Errorf("%s P=%d: modeled Total %#x Comm %#x, want %#x %#x",
				label(tc.cfg), tc.p, total, comm, tc.total, tc.comm)
		}
	}
}

// label names a configuration in failure messages.
func label(cfg Config) string {
	if cfg.BandFM {
		return "Pt-Scotch"
	}
	return "ParMetis"
}
