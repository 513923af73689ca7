package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/refine"
)

// TestEvolveValidAndNoWorseThanLegacy: the search includes the
// configured options verbatim as trial 0 and the combine never worsens
// the best parent, so when the single-trial pipeline produces a
// feasible bisection the evolved cut must be at or below it — and the
// result must still be a valid balanced bisection with honest
// accounting (reported cut = recount).
func TestEvolveValidAndNoWorseThanLegacy(t *testing.T) {
	g := gen.DelaunayRandom(3000, 5)
	tol := refine.BalanceTol
	for _, p := range []int{1, 4, 16} {
		legacy := mustPartition(t, g.G, p, DefaultOptions(42))
		opt := DefaultOptions(42)
		opt.Trials = 3
		res := mustPartition(t, g.G, p, opt)
		if got := graph.CutSize(g.G, res.Part); got != res.Cut {
			t.Fatalf("p=%d: reported cut %d but partition cuts %d", p, res.Cut, got)
		}
		if imb := graph.Imbalance(g.G, res.Part, 2); math.Abs(imb-res.Imbalance) > 1e-12 {
			t.Fatalf("p=%d: reported imbalance %v, recomputed %v", p, res.Imbalance, imb)
		}
		if legacy.Imbalance <= tol && res.Cut > legacy.Cut {
			t.Fatalf("p=%d: evolved cut %d worse than single-trial %d", p, res.Cut, legacy.Cut)
		}
		if res.Imbalance > tol {
			t.Fatalf("p=%d: evolved imbalance %v above tolerance %v", p, res.Imbalance, tol)
		}
		t.Logf("p=%d: cut %d (1 trial) -> %d (3 trials)", p, legacy.Cut, res.Cut)
	}
}

// TestEvolveClockPaysForTrials: the trials run inside one simulated
// world, so the modeled embed and partition times must grow roughly
// linearly with the trial count — the search cannot pretend to be
// free.
func TestEvolveClockPaysForTrials(t *testing.T) {
	g := gen.Grid2D(48, 48)
	legacy := mustPartition(t, g.G, 4, DefaultOptions(7))
	opt := DefaultOptions(7)
	opt.Trials = 3
	res := mustPartition(t, g.G, 4, opt)
	if res.Times.Embed < 2*legacy.Times.Embed {
		t.Fatalf("3-trial embed time %v not >= 2x single-trial %v", res.Times.Embed, legacy.Times.Embed)
	}
	if res.Times.Partition < 2*legacy.Times.Partition {
		t.Fatalf("3-trial partition time %v not >= 2x single-trial %v", res.Times.Partition, legacy.Times.Partition)
	}
	if res.Times.Total <= legacy.Times.Total {
		t.Fatalf("3-trial total %v not above single-trial %v", res.Times.Total, legacy.Times.Total)
	}
	if res.Times.Coarsen != legacy.Times.Coarsen {
		t.Fatalf("coarsening ran more than once: %v vs %v", res.Times.Coarsen, legacy.Times.Coarsen)
	}
}

// TestEvolveDeterministic: the search must be bit-identical across
// repeated runs with the full-cut pass on — parts, cuts, and modeled
// clocks.
func TestEvolveDeterministic(t *testing.T) {
	g := gen.DelaunayRandom(2000, 9)
	var base *Result
	for run := 0; run < 2; run++ {
		opt := withFullCut(DefaultOptions(5))
		opt.Trials = 3
		res := mustPartition(t, g.G, 8, opt)
		if base == nil {
			base = res
			continue
		}
		if res.Cut != base.Cut || res.Imbalance != base.Imbalance {
			t.Fatalf("run %d: cut/imb %d/%v, want %d/%v", run, res.Cut, res.Imbalance, base.Cut, base.Imbalance)
		}
		if math.Abs(res.Times.Total-base.Times.Total) > 1e-12 {
			t.Fatalf("run %d: modeled time %v, want %v", run, res.Times.Total, base.Times.Total)
		}
		for i := range res.Part {
			if res.Part[i] != base.Part[i] {
				t.Fatalf("run %d: partition differs at %d", run, i)
			}
		}
	}
}

// TestEvolveShrinkRecoversKill: a multi-trial search composes with the
// shrink policy. A rank killed while embedding or while combining the
// two best trials is dropped, the P−1 world restarts the search from
// scratch (a multi-trial run keeps no embed checkpoint to redistribute),
// and it delivers the partition of a fault-free two-trial run at P−1.
func TestEvolveShrinkRecoversKill(t *testing.T) {
	g := gen.Grid2D(32, 32)
	const p = 4
	want, err := PartitionChecked(g.G, p-1, trialOptions3(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"embed", "combine"} {
		ev := killEventFor(t, g.G, trialOptions3(2), p, 2, class)
		opt := trialOptions3(2)
		opt.Model.Faults = mpi.NewFaultPlan().Kill(2, ev)
		opt.Recover = RecoverOptions{Policy: RecoverShrink}
		res, err := PartitionChecked(g.G, p, opt)
		if err != nil {
			t.Fatalf("kill in %s (event %d) not recovered by shrink: %v", class, ev, err)
		}
		checkShrunk(t, g.G, res, p, "trials=2 kill in "+class)
		if r := res.Recovery.Resumes[0]; r != fmt.Sprintf("shrink@P=%d/%s", p-1, stageStart) {
			t.Fatalf("kill in %s: resumed at %q, want a P−1 restart", class, r)
		}
		if res.Cut != want.Cut || !slices.Equal(res.Part, want.Part) {
			t.Fatalf("kill in %s: shrunken cut %d differs from the fault-free P=%d run's %d", class, res.Cut, p-1, want.Cut)
		}
	}
}

// TestEvolveIdleRanksJoinCombine: with more ranks than the finest
// level keeps active, some ranks own no vertices. They must still join
// the combine's collectives — whether to combine is decided by the
// trial count, which every rank shares, not by what a rank holds — or
// the active ranks deadlock in the combine.
func TestEvolveIdleRanksJoinCombine(t *testing.T) {
	g := gen.Grid2D(16, 16) // 256 vertices: three active ranks at P=8
	opt := DefaultOptions(3)
	opt.Trials = 2
	res, err := PartitionChecked(g.G, 8, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckResult(g.G, res); err != nil {
		t.Fatal(err)
	}
}

// TestEvolveTrialsOneIsLegacyPath: Trials <= 1 must route through the
// unchanged single-pass pipeline — same cut, same partition, same
// modeled clock as the default options.
func TestEvolveTrialsOneIsLegacyPath(t *testing.T) {
	g := gen.Grid2D(32, 32)
	legacy := mustPartition(t, g.G, 4, DefaultOptions(11))
	for _, trials := range []int{0, 1} {
		opt := DefaultOptions(11)
		opt.Trials = trials
		res := mustPartition(t, g.G, 4, opt)
		if res.Cut != legacy.Cut || res.Times.Total != legacy.Times.Total {
			t.Fatalf("Trials=%d: cut/time %d/%v, want legacy %d/%v",
				trials, res.Cut, res.Times.Total, legacy.Cut, legacy.Times.Total)
		}
		for i := range res.Part {
			if res.Part[i] != legacy.Part[i] {
				t.Fatalf("Trials=%d: partition differs at %d", trials, i)
			}
		}
	}
}
