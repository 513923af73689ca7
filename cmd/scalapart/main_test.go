package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/mpi"
)

// TestCheckFlags: every flag value and combination the run cannot take
// is rejected by checkFlags, before any graph is loaded, with an error
// naming the offending flag; everything else passes through decoded.
func TestCheckFlags(t *testing.T) {
	type flags struct {
		replay, refine, recover, fault string
		trials                         int
	}
	def := flags{replay: "goroutine", refine: "off", recover: "off", trials: 1}
	with := func(f func(*flags)) flags { v := def; f(&v); return v }
	for _, tc := range []struct {
		name    string
		in      flags
		wantErr string // substring; "" means valid
		check   func(flagConfig) bool
	}{
		{"defaults", def, "", func(c flagConfig) bool {
			return c.replay == mpi.ReplayGoroutine && !c.fullCut && c.policy == core.RecoverOff && c.faults == nil
		}},
		{"batched-full", with(func(f *flags) { f.replay, f.refine = "batched", "full" }), "", func(c flagConfig) bool {
			return c.replay == mpi.ReplayBatched && c.fullCut
		}},
		{"trials-alone", with(func(f *flags) { f.trials = 3 }), "", nil},
		{"recover-alone", with(func(f *flags) { f.recover = "respawn" }), "", func(c flagConfig) bool {
			return c.policy == core.RecoverRespawn
		}},
		{"fault", with(func(f *flags) { f.fault = "kill:2@40" }), "", func(c flagConfig) bool {
			return c.faults != nil && c.faults.Len() == 1
		}},
		{"trials-respawn", with(func(f *flags) { f.trials, f.recover = 2, "respawn" }), "-recover respawn", nil},
		{"trials-shrink", with(func(f *flags) { f.trials, f.recover = 4, "shrink" }), "-trials 4", nil},
		{"bad-replay", with(func(f *flags) { f.replay = "threads" }), "threads", nil},
		{"bad-refine", with(func(f *flags) { f.refine = "max" }), "-refine", nil},
		{"zero-trials", with(func(f *flags) { f.trials = 0 }), "-trials", nil},
		{"bad-recover", with(func(f *flags) { f.recover = "retry" }), "retry", nil},
		{"bad-fault", with(func(f *flags) { f.fault = "kill" }), "kill", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg, err := checkFlags(tc.in.replay, tc.in.refine, tc.in.recover, tc.in.fault, tc.in.trials)
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
