package bench

import (
	"testing"

	"repro/internal/geopart"
	"repro/internal/refine"
)

// TestQualitySmoke is the CI quality gate: on two suite graphs at
// P ∈ {4, 16}, the full-cut refined pipeline must never cut more than
// the strip-only pipeline, stay inside the balance tolerance, and the
// evolutionary search must never lose to the single-trial run it
// contains. Scale 0.25 keeps it smoke-fast.
func TestQualitySmoke(t *testing.T) {
	tol := refine.BalanceTol
	h := New(0.25, []int{4, 16})
	hf := New(0.25, []int{4, 16})
	hf.FullCutRounds = geopart.FullRefineRounds
	for _, g := range []string{"ecology1", "hugetrace-00000"} {
		for _, p := range []int{4, 16} {
			off := h.Get(g, MethodSP, p)
			full := hf.Get(g, MethodSP, p)
			if full.Cut > off.Cut {
				t.Errorf("%s P=%d: full-cut refinement worsened the cut: %d > %d", g, p, full.Cut, off.Cut)
			}
			if full.Imbalance > tol {
				t.Errorf("%s P=%d: refined imbalance %v above tolerance %v", g, p, full.Imbalance, tol)
			}
			if full.Time <= off.Time {
				t.Errorf("%s P=%d: full-cut pass charged no modeled time (%v vs %v)", g, p, full.Time, off.Time)
			}
			t.Logf("%s P=%d: cut %d -> %d (imb %.4f)", g, p, off.Cut, full.Cut, full.Imbalance)
		}
	}
	// The evolutionary search includes trial 0 verbatim, so with a
	// feasible single-trial run it can only match or improve.
	single := h.Get("ecology1", MethodSP, 4)
	h2 := New(0.25, []int{4})
	h2.Trials = 3
	multi := h2.Get("ecology1", MethodSP, 4)
	if single.Imbalance <= tol && multi.Cut > single.Cut {
		t.Errorf("ecology1 P=4: 3-trial cut %d worse than single-trial %d", multi.Cut, single.Cut)
	}
	if multi.Time <= single.Time {
		t.Errorf("ecology1 P=4: 3 trials charged no extra modeled time (%v vs %v)", multi.Time, single.Time)
	}
	t.Logf("ecology1 P=4: cut %d (1 trial) -> %d (3 trials)", single.Cut, multi.Cut)
}

// TestEnvKeyFingerprintsQualityKnobs: changing either quality knob —
// trials or full-cut rounds — must change the cache fingerprint, or
// sweeps under different settings would share stale entries.
func TestEnvKeyFingerprintsQualityKnobs(t *testing.T) {
	h := New(1, []int{4})
	base := h.envKey()
	h.Trials = 4
	if h.envKey() == base {
		t.Error("envKey ignores Trials")
	}
	h.Trials = 0

	h.FullCutRounds = geopart.FullRefineRounds
	if h.envKey() == base {
		t.Error("envKey ignores FullCutRounds")
	}
	h.FullCutRounds = 0

	// Trials 0 and 1 are the same pipeline and must share cache entries.
	h.Trials = 1
	if h.envKey() != base {
		t.Error("envKey distinguishes Trials=1 from Trials=0")
	}
}
