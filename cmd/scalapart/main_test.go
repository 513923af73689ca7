package main

import (
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/geopart"
	"repro/internal/mpi"
)

// TestCheckFlags: every flag value and combination the run cannot take
// is rejected by checkFlags, before any graph is loaded, with an error
// naming the offending flag; everything else passes through decoded.
func TestCheckFlags(t *testing.T) {
	def := flagValues{method: "ScalaPart", refine: "off", recover: "off", trials: 1, p: 16, scale: 0.25}
	with := func(f func(*flagValues)) flagValues { v := def; f(&v); return v }
	for _, tc := range []struct {
		name    string
		in      flagValues
		wantErr string // substring; "" means valid
		check   func(flagConfig) bool
	}{
		{"defaults", def, "", func(c flagConfig) bool {
			m := mpi.DefaultModel()
			return c.model == m && c.fullCutRounds == 0 && c.policy == core.RecoverOff
		}},
		{"refine-full", with(func(f *flagValues) { f.refine = "full" }), "", func(c flagConfig) bool {
			return c.fullCutRounds == geopart.FullRefineRounds
		}},
		{"ps", with(func(f *flagValues) { f.ps = "1, 16" }), "", func(c flagConfig) bool {
			return slices.Equal(c.ps, []int{1, 16})
		}},
		{"trials-alone", with(func(f *flagValues) { f.trials = 3 }), "", nil},
		{"recover-alone", with(func(f *flagValues) { f.recover = "respawn" }), "", func(c flagConfig) bool {
			return c.policy == core.RecoverRespawn
		}},
		{"fault", with(func(f *flagValues) { f.fault = "kill:2@40" }), "", func(c flagConfig) bool {
			return c.model.Faults != nil && c.model.Faults.Len() == 1
		}},
		{"trials-respawn", with(func(f *flagValues) { f.trials, f.recover = 2, "respawn" }), "", func(c flagConfig) bool {
			return c.policy == core.RecoverRespawn
		}},
		{"trials-shrink", with(func(f *flagValues) { f.trials, f.recover = 4, "shrink" }), "", func(c flagConfig) bool {
			return c.policy == core.RecoverShrink
		}},
		{"watchdog", with(func(f *flagValues) { f.watchdog = 500 * time.Millisecond }), "", func(c flagConfig) bool {
			return c.model.Watchdog == 500*time.Millisecond
		}},
		{"bad-method", with(func(f *flagValues) { f.method = "Bogus" }), "-method", nil},
		{"bad-refine", with(func(f *flagValues) { f.refine = "max" }), "-refine", nil},
		{"zero-trials", with(func(f *flagValues) { f.trials = 0 }), "-trials", nil},
		{"zero-p", with(func(f *flagValues) { f.p = 0 }), "-p", nil},
		{"negative-p", with(func(f *flagValues) { f.p = -3 }), "-p", nil},
		{"negative-workers", with(func(f *flagValues) { f.workers = -4 }), "-workers", nil},
		{"negative-watchdog", with(func(f *flagValues) { f.watchdog = -time.Second }), "-watchdog", nil},
		{"negative-retry-budget", with(func(f *flagValues) { f.retryBudget = -5 }), "-retry-budget", nil},
		{"scale-zero", with(func(f *flagValues) { f.scale = 0 }), "-scale", nil},
		{"scale-negative", with(func(f *flagValues) { f.scale = -3 }), "-scale", nil},
		{"scale-nan", with(func(f *flagValues) { f.scale = math.NaN() }), "-scale", nil},
		{"bad-recover", with(func(f *flagValues) { f.recover = "retry" }), "retry", nil},
		{"bad-fault", with(func(f *flagValues) { f.fault = "kill" }), "kill", nil},
		{"bad-ps", with(func(f *flagValues) { f.ps = "1,0" }), "-ps", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := checkFlags(tc.in)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("rejected a valid configuration: %v", err)
				}
				if tc.check != nil && !tc.check(cfg) {
					t.Fatalf("decoded %+v", cfg)
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
