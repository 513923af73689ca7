package bench

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/mpi"
)

var (
	miniOnce sync.Once
	mini     *Harness
)

// miniHarness keeps tests quick: tiny graphs, three rank counts, one
// shared cache across all tests of this package.
func miniHarness() *Harness {
	miniOnce.Do(func() {
		mini = New(0.03, []int{1, 8, 64})
	})
	return mini
}

func TestTablesRenderAllGraphs(t *testing.T) {
	h := miniHarness()
	for name, out := range map[string]string{
		"table1": h.Table1(),
		"table2": h.Table2(),
		"table3": h.Table3(),
	} {
		for _, g := range SuiteNames() {
			if !strings.Contains(out, g) {
				t.Fatalf("%s missing row for %s:\n%s", name, g, out)
			}
		}
	}
}

func TestFiguresRenderAllPs(t *testing.T) {
	h := miniHarness()
	for name, out := range map[string]string{
		"fig3": h.Fig3(),
		"fig4": h.Fig4(),
		"fig7": h.Fig7(),
		"fig8": h.Fig8(),
	} {
		for _, p := range []string{"     1 ", "     8 ", "    64 "} {
			if !strings.Contains(out, p) {
				t.Fatalf("%s missing P row %q:\n%s", name, p, out)
			}
		}
	}
}

func TestRunCaching(t *testing.T) {
	h := miniHarness()
	a := h.Get("ecology1", MethodSP, 8)
	b := h.Get("ecology1", MethodSP, 8)
	if a != b {
		t.Fatal("repeat Get did not hit the cache")
	}
}

func TestCutRangeOrdering(t *testing.T) {
	h := miniHarness()
	lo, hi := h.CutRange("ecology1", MethodPM)
	if lo <= 0 || hi < lo {
		t.Fatalf("range %d..%d", lo, hi)
	}
}

func TestSeedOfStable(t *testing.T) {
	if seedOf("ecology1") != seedOf("ecology1") {
		t.Fatal("seedOf not stable")
	}
	if seedOf("ecology1") == seedOf("ecology2") {
		t.Fatal("seedOf collides for suite names")
	}
}

func TestRemainingExperimentsRender(t *testing.T) {
	h := miniHarness()
	for name, out := range map[string]string{
		"fig5":   h.Fig5(),
		"fig6":   h.Fig6(),
		"fig9":   h.Fig9(),
		"table4": h.Table4(),
		"fig2":   mustRender(t)(h.Fig2()),
	} {
		if len(out) < 40 {
			t.Fatalf("%s suspiciously short:\n%s", name, out)
		}
	}
}

// mustRender unwraps an experiment's (string, error) result, failing t
// on error.
func mustRender(t testing.TB) func(string, error) string {
	return func(out string, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
}

func TestAblationsRender(t *testing.T) {
	h := miniHarness()
	for name, out := range map[string]string{
		"block":   mustRender(t)(h.AblationBlockSize()),
		"strip":   mustRender(t)(h.AblationStripFM()),
		"tries":   mustRender(t)(h.AblationTries()),
		"levels":  mustRender(t)(h.AblationLevelRetention()),
		"lattice": mustRender(t)(h.AblationLatticeVsExact()),
		"ssde":    mustRender(t)(h.AblationSSDE()),
	} {
		if !strings.Contains(out, "Ablation") {
			t.Fatalf("%s: missing header:\n%s", name, out)
		}
		if !strings.Contains(out, "cut") {
			t.Fatalf("%s: no cut column", name)
		}
	}
}

// TestHarnessFallbackOnFault: a harness whose model kills a rank must
// still deliver a valid run, flagged as the sequential fallback.
func TestHarnessFallbackOnFault(t *testing.T) {
	h := New(0.03, []int{8})
	var log strings.Builder
	h.Out = &log
	h.Model.Faults = mpi.NewFaultPlan().Kill(2, 5)
	r := h.Get("ecology1", MethodSP, 8)
	if !r.Fallback {
		t.Fatalf("run not flagged as fallback: %+v", r)
	}
	if r.Cut <= 0 || r.Imbalance > 0.1 {
		t.Fatalf("fallback partition implausible: cut=%d imb=%v", r.Cut, r.Imbalance)
	}
	if msg := log.String(); !strings.Contains(msg, "FAILED") || !strings.Contains(msg, "rank 2") {
		t.Fatalf("diagnostic not logged:\n%s", msg)
	}
}

func TestSPCutsLength(t *testing.T) {
	h := miniHarness()
	cuts := h.SPCuts("ecology1")
	if len(cuts) != len(h.Ps) {
		t.Fatalf("%d cuts for %d Ps", len(cuts), len(h.Ps))
	}
	for _, c := range cuts {
		if c <= 0 {
			t.Fatalf("non-positive cut in %v", cuts)
		}
	}
}

// TestParsePs: the empty spec is the paper's sweep, entries may carry
// spaces, and anything but a list of positive integers is rejected.
func TestParsePs(t *testing.T) {
	if ps, err := ParsePs(""); err != nil || !slices.Equal(ps, DefaultPs()) {
		t.Fatalf(`ParsePs("") = %v, %v; want DefaultPs()`, ps, err)
	}
	if ps, err := ParsePs("1, 16,256"); err != nil || !slices.Equal(ps, []int{1, 16, 256}) {
		t.Fatalf("ParsePs = %v, %v; want [1 16 256]", ps, err)
	}
	for _, bad := range []string{"0", "-4", "1,,2", "16,", "x", "1.5", " "} {
		if ps, err := ParsePs(bad); err == nil {
			t.Fatalf("ParsePs(%q) = %v, want an error", bad, ps)
		}
	}
}
