package bench

import (
	"testing"

	"repro/internal/core"
)

// TestChaosSoakCI is the CI chaos soak: seeded randomized fault
// schedules against recovery-enabled partitioning over three suite
// graphs, P ∈ {4, 16}, and both recovery policies. Every schedule must
// end in a partition passing the invariant checkers; full-strength
// survivors must reproduce the fault-free cut bit-identically.
func TestChaosSoakCI(t *testing.T) {
	if testing.Short() {
		t.Skip("soaks dozens of recovery-enabled runs (~1 min)")
	}
	h := New(0.15, []int{4, 16})
	rep := h.ChaosSoak(ChaosConfig{
		Graphs:    []string{"ecology1", "ecology2", "delaunay_n20"},
		Ps:        []int{4, 16},
		Policies:  []core.RecoveryPolicy{core.RecoverRespawn, core.RecoverShrink},
		Schedules: 2,
		Seed:      1,
	})
	t.Logf("\n%s", rep)
	if rep.Failed != 0 {
		t.Fatalf("%d chaos case(s) failed verification:\n%v", rep.Failed, rep.Failures())
	}
	if len(rep.Cases) != 24 {
		t.Fatalf("soak ran %d cases, want 24", len(rep.Cases))
	}
	// The soak is vacuous if no schedule ever forced the driver to act.
	acted := 0
	for _, c := range rep.Cases {
		if c.Recovery.Respawns > 0 || c.Recovery.Shrinks > 0 || c.Fallback {
			acted++
		}
	}
	if acted == 0 {
		t.Fatal("no chaos schedule triggered any recovery — the soak tested nothing")
	}
}

// Failures returns the cases that failed verification.
func (r *ChaosReport) Failures() []ChaosCase {
	var out []ChaosCase
	for _, c := range r.Cases {
		if c.Err != "" {
			out = append(out, c)
		}
	}
	return out
}
