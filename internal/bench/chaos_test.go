package bench

import (
	"encoding/json"
	"os"
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

// TestRecoveryZeroFaultsMatchesSeedRows: arming recovery without any
// fault schedule must not move a single modeled field relative to the
// committed BENCH_4.json perf trajectory — the reliability layer's
// sequence numbers and the driver's checkpointing are pure bookkeeping
// until a fault actually fires.
func TestRecoveryZeroFaultsMatchesSeedRows(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes bench rows at the seed scale")
	}
	raw, err := os.ReadFile("../../BENCH_4.json")
	if err != nil {
		t.Fatal(err)
	}
	var file BenchFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	want := map[int]BenchRecord{}
	for _, r := range file.Runs {
		if r.Graph == "ecology1" {
			want[r.P] = r
		}
	}
	for _, policy := range []core.RecoveryPolicy{core.RecoverRespawn, core.RecoverShrink} {
		h := New(file.Scale, []int{1, 4, 16})
		h.Recover = core.RecoverOptions{Policy: policy}
		for _, p := range []int{1, 4, 16} {
			w, ok := want[p]
			if !ok {
				t.Fatalf("BENCH_4.json has no ecology1 row at P=%d", p)
			}
			got := h.Get("ecology1", MethodSP, p)
			if got.Fallback {
				t.Fatalf("policy %s P=%d: zero-fault run fell back", policy, p)
			}
			if got.Cut != w.Cut || got.Imbalance != w.Imbalance ||
				got.Time != w.ModeledTime || got.CommTime != w.CommTime ||
				got.Messages != w.Messages || got.BytesSent != w.BytesSent {
				t.Fatalf("policy %s P=%d drifted from BENCH_4.json:\n  want cut=%d imb=%v time=%v comm=%v msgs=%d bytes=%d\n  got  cut=%d imb=%v time=%v comm=%v msgs=%d bytes=%d",
					policy, p,
					w.Cut, w.Imbalance, w.ModeledTime, w.CommTime, w.Messages, w.BytesSent,
					got.Cut, got.Imbalance, got.Time, got.CommTime, got.Messages, got.BytesSent)
			}
		}
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
