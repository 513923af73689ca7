package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
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
			return c.method.Name == bench.MethodSP && c.run.Model == m && c.run.FullCutRounds == 0 &&
				c.run.Recover.Policy == core.RecoverOff && c.run.Trials == 1
		}},
		{"refine-full", with(func(f *flagValues) { f.refine = "full" }), "", func(c flagConfig) bool {
			return c.run.FullCutRounds == geopart.FullRefineRounds
		}},
		{"trials-alone", with(func(f *flagValues) { f.trials = 3 }), "", nil},
		{"recover-alone", with(func(f *flagValues) { f.recover = "respawn" }), "", func(c flagConfig) bool {
			return c.run.Recover.Policy == core.RecoverRespawn
		}},
		{"fault", with(func(f *flagValues) { f.fault = "kill:2@40" }), "", func(c flagConfig) bool {
			return c.run.Model.Faults != nil && c.run.Model.Faults.Len() == 1
		}},
		{"trials-respawn", with(func(f *flagValues) { f.trials, f.recover = 2, "respawn" }), "", func(c flagConfig) bool {
			return c.run.Recover.Policy == core.RecoverRespawn
		}},
		{"trials-shrink", with(func(f *flagValues) { f.trials, f.recover = 4, "shrink" }), "", func(c flagConfig) bool {
			return c.run.Recover.Policy == core.RecoverShrink
		}},
		{"watchdog", with(func(f *flagValues) { f.watchdog = 500 * time.Millisecond }), "", func(c flagConfig) bool {
			return c.run.Model.Watchdog == 500*time.Millisecond
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

// TestEveryMethodRuns: every entry of the method table accepted by
// -method runs on a graph with natural coordinates and on one without
// (where scalapart computes a layout for the methods that need one),
// and each result passes CheckResult. The graphs come through the suite
// lookup scalapart's -graph uses.
func TestEveryMethodRuns(t *testing.T) {
	for _, name := range []string{"ecology1", "kkt_power"} {
		built, err := gen.Build(name, 0.03)
		if err != nil {
			t.Fatal(err)
		}
		g, coords := built.G, built.Coords
		if (coords != nil) != (name == "ecology1") {
			t.Fatalf("%s: natural coordinates %t", name, coords != nil)
		}
		if coords == nil {
			coords = embed.SequentialLayout(g, embed.SeqOptions{Seed: 42})
		}
		for _, method := range bench.MethodNames() {
			fc, err := checkFlags(flagValues{method: method, refine: "off", recover: "off", trials: 1, p: 8, scale: 0.03})
			if err != nil {
				t.Fatalf("%s rejected: %v", method, err)
			}
			res, err := fc.method.Run(g, coords, 8, 42, fc.run)
			if err != nil {
				t.Fatalf("%s on %s: %v", method, name, err)
			}
			if res.Fallback {
				t.Fatalf("%s on %s: fault-free run fell back", method, name)
			}
			if err := core.CheckResult(g, res); err != nil {
				t.Fatalf("%s on %s: %v", method, name, err)
			}
		}
	}
}
