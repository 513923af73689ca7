package baseline

import (
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
				t.Fatalf("%s p=%d: cut mismatch %d vs %d", cfg.Name, p, res.Cut, got)
			}
			if res.Imbalance > 0.06 {
				t.Fatalf("%s p=%d: imbalance %.3f", cfg.Name, p, res.Imbalance)
			}
			if res.Cut <= 0 || res.Cut > 400 {
				t.Fatalf("%s p=%d: implausible cut %d", cfg.Name, p, res.Cut)
			}
			if res.Total <= 0 || res.Comm > res.Total {
				t.Fatalf("%s p=%d: bad timing total=%v comm=%v", cfg.Name, p, res.Total, res.Comm)
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
