package main

import (
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/geopart"
	"repro/internal/mpi"
)

// TestCheckFlags: every flag value the sweep cannot take is rejected by
// checkFlags, before any graph is built, with one line naming the
// offending flag; everything else configures the harness and selects
// the experiments to run.
func TestCheckFlags(t *testing.T) {
	def := flagValues{experiment: "all", refine: "off", scale: 1, trials: 1, chaosSchedules: 3}
	with := func(f func(*flagValues)) flagValues { v := def; f(&v); return v }
	for _, tc := range []struct {
		name    string
		in      flagValues
		wantErr string // substring; "" means valid
		check   func(*bench.Harness) bool
	}{
		{"defaults", def, "", func(h *bench.Harness) bool {
			return h.Scale == 1 && slices.Equal(h.Ps, bench.DefaultPs()) && h.Model == mpi.DefaultModel() &&
				h.Trials == 1 && h.FullCutRounds == 0
		}},
		{"refine-full", with(func(f *flagValues) { f.refine = "full" }), "", func(h *bench.Harness) bool {
			return h.FullCutRounds == geopart.FullRefineRounds
		}},
		{"ps", with(func(f *flagValues) { f.ps = "1, 16" }), "", func(h *bench.Harness) bool {
			return slices.Equal(h.Ps, []int{1, 16})
		}},
		{"workers", with(func(f *flagValues) { f.workers = 2 }), "", func(h *bench.Harness) bool {
			return h.Model.Workers == 2
		}},
		{"trials", with(func(f *flagValues) { f.trials = 3 }), "", func(h *bench.Harness) bool {
			return h.Trials == 3
		}},
		{"one-chaos-schedule", with(func(f *flagValues) { f.chaosSchedules = 1 }), "", nil},
		{"bench-json", with(func(f *flagValues) { f.experiment = "bench-json" }), "", nil},
		{"bad-refine", with(func(f *flagValues) { f.refine = "max" }), "-refine", nil},
		{"zero-trials", with(func(f *flagValues) { f.trials = 0 }), "-trials", nil},
		{"negative-workers", with(func(f *flagValues) { f.workers = -1 }), "-workers", nil},
		{"bad-ps", with(func(f *flagValues) { f.ps = "0" }), "-ps", nil},
		{"scale-zero", with(func(f *flagValues) { f.scale = 0 }), "-scale", nil},
		{"scale-nan", with(func(f *flagValues) { f.scale = math.NaN() }), "-scale", nil},
		{"zero-chaos-schedules", with(func(f *flagValues) { f.chaosSchedules = 0 }), "-chaos-schedules", nil},
		{"negative-chaos-schedules", with(func(f *flagValues) { f.chaosSchedules = -2 }), "-chaos-schedules", nil},
		{"unknown-experiment", with(func(f *flagValues) { f.experiment = "table9" }), "-experiment", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, run, err := checkFlags(tc.in)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected a valid configuration: %v", err)
				}
				if tc.check != nil && !tc.check(h) {
					t.Fatalf("decoded %+v", h)
				}
				if names := experimentNames(run); tc.in.experiment != "all" && !slices.Equal(names, []string{tc.in.experiment}) {
					t.Fatalf("-experiment %s selects %v", tc.in.experiment, names)
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted %+v", tc.in)
			}
			if msg := err.Error(); !strings.Contains(msg, tc.wantErr) || strings.Contains(msg, "\n") {
				t.Fatalf("error %q: want one line mentioning %q", msg, tc.wantErr)
			}
		})
	}
}

// TestAllSkipsByNameExperiments: "all" runs the paper's tables, figures
// and ablations in table order; quality, chaos and bench-json run only
// when named.
func TestAllSkipsByNameExperiments(t *testing.T) {
	_, run, err := checkFlags(flagValues{experiment: "all", refine: "off", scale: 1, trials: 1, chaosSchedules: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table1", "table2", "table3", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table4", "ablations"}
	if got := experimentNames(run); !slices.Equal(got, want) {
		t.Fatalf("all selects %v, want %v", got, want)
	}
}

func experimentNames(run []experiment) []string {
	names := make([]string, len(run))
	for i, e := range run {
		names[i] = e.name
	}
	return names
}
