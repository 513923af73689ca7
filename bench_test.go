// Package repro's benchmarks regenerate every table and figure of the
// paper's evaluation (see DESIGN.md's experiment index) at a reduced
// scale, one benchmark per experiment. The heavy lifting is cached in a
// shared harness, so each benchmark pays the experiment cost once and
// subsequent b.N iterations read cached results; reported metrics carry
// the headline numbers (cut ratios, modeled times, speed-ups).
//
// The full-scale sweep is produced by cmd/benchsuite; these benchmarks
// are the CI-sized reproduction of the same code paths.
package repro

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/stats"
)

// benchScale keeps `go test -bench=.` in the minutes range on one core;
// cmd/benchsuite runs the real thing.
const benchScale = 0.08

var (
	harnessOnce sync.Once
	harness     *bench.Harness
)

func sharedHarness() *bench.Harness {
	harnessOnce.Do(func() {
		harness = bench.New(benchScale, []int{1, 16, 256, 1024})
	})
	return harness
}

// lines counts output rows as a sanity signal that the experiment
// produced its table.
func lines(s string) int { return strings.Count(s, "\n") }

func BenchmarkTable1Suite(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if lines(h.Table1()) < 10 {
			b.Fatal("table 1 truncated")
		}
	}
}

func BenchmarkTable2GeometricQuality(b *testing.B) {
	h := sharedHarness()
	var out string
	for i := 0; i < b.N; i++ {
		out = h.Table2()
	}
	b.ReportMetric(float64(lines(out)), "rows")
}

func BenchmarkTable3CutRanges(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if lines(h.Table3()) < 10 {
			b.Fatal("table 3 truncated")
		}
	}
}

func BenchmarkTable4Speedups(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if lines(h.Table4()) < 5 {
			b.Fatal("table 4 truncated")
		}
	}
}

func BenchmarkFig2Strip(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		out, err := h.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if lines(out) < 2 {
			b.Fatal("fig 2 truncated")
		}
	}
}

func BenchmarkFig3TotalTimes(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if lines(h.Fig3()) < 5 {
			b.Fatal("fig 3 truncated")
		}
	}
	// Headline shape metric: ScalaPart time relative to Pt-Scotch at
	// the largest P (the paper reports 0.0617 at 1024).
	pMax := 1024
	b.ReportMetric(h.TotalTime(bench.MethodSP, pMax)/h.TotalTime(bench.MethodPTS, pMax), "SP/PTS@Pmax")
}

func BenchmarkFig4PartitionOnly(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if lines(h.Fig4()) < 5 {
			b.Fatal("fig 4 truncated")
		}
	}
}

func BenchmarkFig5Hugebubbles(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if lines(h.Fig5()) < 5 {
			b.Fatal("fig 5 truncated")
		}
	}
}

func BenchmarkFig6G3Circuit(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if lines(h.Fig6()) < 5 {
			b.Fatal("fig 6 truncated")
		}
	}
}

func BenchmarkFig7Components(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if lines(h.Fig7()) < 5 {
			b.Fatal("fig 7 truncated")
		}
	}
}

func BenchmarkFig8EmbedComm(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if lines(h.Fig8()) < 5 {
			b.Fatal("fig 8 truncated")
		}
	}
}

func BenchmarkFig9Large4(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if lines(h.Fig9()) < 10 {
			b.Fatal("fig 9 truncated")
		}
	}
}

func BenchmarkAblationLatticeVsExact(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.AblationLatticeVsExact(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBlockSize(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.AblationBlockSize(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStripFM(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.AblationStripFM(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTries(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.AblationTries(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLevelRetention(b *testing.B) {
	h := sharedHarness()
	for i := 0; i < b.N; i++ {
		if _, err := h.AblationLevelRetention(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScalaPartEndToEnd measures the real (wall-clock) cost of one
// complete ScalaPart run — the simulation's own performance rather than
// the modeled cluster time.
func BenchmarkScalaPartEndToEnd(b *testing.B) {
	g := gen.DelaunayRandom(20000, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.PartitionChecked(g.G, 16, core.DefaultOptions(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if res.Cut <= 0 {
			b.Fatal("degenerate cut")
		}
	}
}

// TestBenchmarkShapes is the checked-in assertion of the paper's
// headline shapes at bench scale: ScalaPart's best cut competitive with
// Pt-Scotch's, ParMetis's worst cut the largest, ScalaPart slowest at
// P=1 and cheaper than Pt-Scotch at P=1024.
func TestBenchmarkShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shape test runs the mini-sweep")
	}
	h := sharedHarness()
	var spBest, ptsBest []float64
	for _, name := range bench.SuiteNames() {
		spLo, _ := h.CutRange(name, bench.MethodSP)
		ptsLo, _ := h.CutRange(name, bench.MethodPTS)
		spBest = append(spBest, float64(spLo))
		ptsBest = append(ptsBest, float64(ptsLo))
	}
	ratio := stats.GeoMean(spBest) / stats.GeoMean(ptsBest)
	if ratio > 1.35 {
		t.Errorf("ScalaPart best cuts %.2fx Pt-Scotch's best (want competitive, paper: 0.94)", ratio)
	}
	sp1 := h.TotalTime(bench.MethodSP, 1)
	pts1 := h.TotalTime(bench.MethodPTS, 1)
	if sp1 < 2*pts1 {
		t.Errorf("ScalaPart at P=1 should be far slower than Pt-Scotch (got %.4f vs %.4f)", sp1, pts1)
	}
	spMax := h.TotalTime(bench.MethodSP, 1024)
	ptsMax := h.TotalTime(bench.MethodPTS, 1024)
	if spMax > ptsMax {
		t.Errorf("ScalaPart at P=1024 (%.4f) should beat Pt-Scotch (%.4f)", spMax, ptsMax)
	}
}
