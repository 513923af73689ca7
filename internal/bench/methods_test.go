package bench

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata")

// methodRowsGolden pins every method's harness row on every suite graph
// of miniHarness.
const methodRowsGolden = "testdata/method_rows.txt"

// TestMethodRowsGolden: every method, run through the harness on every
// suite graph of miniHarness, reproduces its recorded row bit for bit
// (cut, imbalance, modeled and communication time, message and byte
// totals, strip size, fallback flag). Parallel methods run at each P of
// the sweep, sequential ones at P = 1. The runs share miniHarness' cache
// with the table and figure tests.
func TestMethodRowsGolden(t *testing.T) {
	h := miniHarness()
	var b strings.Builder
	for _, name := range SuiteNames() {
		for _, m := range methods {
			ps := []int{1}
			if m.Simulated {
				ps = h.Ps
			}
			for _, p := range ps {
				r := h.Get(name, m.Name, p)
				fmt.Fprintf(&b, "%s %s P=%d cut=%d imb=%016x time=%016x comm=%016x msgs=%d bytes=%d strip=%d fallback=%t\n",
					name, m.Name, p, r.Cut, math.Float64bits(r.Imbalance), math.Float64bits(r.Time),
					math.Float64bits(r.CommTime), r.Messages, r.BytesSent, r.StripSize, r.Fallback)
			}
		}
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(methodRowsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(methodRowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("row %d moved:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%d rows, want %d", len(gl), len(wl))
	}
}

// TestFallbackRunsAccountedAlike: a run that fails and falls back in
// the harness and a ScalaPart run whose recovery ladder is exhausted
// end in the same sequential fallback, so they report the same cut and
// the fallback's own modeled and communication time.
func TestFallbackRunsAccountedAlike(t *testing.T) {
	fallbackRun := func(plan *mpi.FaultPlan, policy core.RecoveryPolicy) *Run {
		h := New(0.03, []int{4})
		h.Model.Faults = plan
		h.Recover = core.RecoverOptions{Policy: policy}
		r := h.Get("ecology1", MethodSP, 4)
		if !r.Fallback {
			t.Fatalf("plan %s under %s: run not flagged as fallback: %+v", plan.Key(), policy, r)
		}
		return r
	}
	failed := fallbackRun(mpi.NewFaultPlan().Kill(1, 2), core.RecoverOff)
	exhausted := fallbackRun(mpi.NewFaultPlan().Kill(1, 2).Kill(1, 8).Kill(1, 14).Kill(2, 60).Kill(3, 100), core.RecoverRespawn)
	if failed.Cut != exhausted.Cut || failed.Time != exhausted.Time || failed.CommTime != exhausted.CommTime {
		t.Fatalf("failed run: cut %d time %v comm %v; exhausted ladder: cut %d time %v comm %v",
			failed.Cut, failed.Time, failed.CommTime, exhausted.Cut, exhausted.Time, exhausted.CommTime)
	}
	if failed.Time <= 0 || failed.CommTime <= 0 {
		t.Fatalf("fallback run carries no modeled time: %+v", failed)
	}
}
