package bench

import (
	"testing"

	"repro/internal/hostpar"
	"repro/internal/mpi"
)

// TestCacheKeySeparatesEnvironments is the regression test for the
// singleflight cache handing back a stale Run after a process-global
// knob changed: the key must fingerprint the worker-pool size, the
// fault plan, and the tracing flag — not just (graph, method, p).
func TestCacheKeySeparatesEnvironments(t *testing.T) {
	h := New(0.03, []int{8})
	base := h.Get("ecology1", MethodSP, 8)

	t.Run("host workers", func(t *testing.T) {
		defer hostpar.SetWorkers(hostpar.SetWorkers(3))
		r := h.Get("ecology1", MethodSP, 8)
		if r == base {
			t.Fatal("cache ignored the host worker-pool size")
		}
		// The knob must not change modeled results, only the cache slot.
		if r.Cut != base.Cut || r.Time != base.Time {
			t.Fatalf("worker count changed modeled results: %v/%v vs %v/%v",
				r.Cut, r.Time, base.Cut, base.Time)
		}
	})

	t.Run("fault plan", func(t *testing.T) {
		prev := h.Model.Faults
		h.Model.Faults = mpi.NewFaultPlan().Kill(2, 5)
		defer func() { h.Model.Faults = prev }()
		r := h.Get("ecology1", MethodSP, 8)
		if r == base {
			t.Fatal("cache returned a healthy run for a faulted model")
		}
		if !r.Fallback {
			t.Fatalf("faulted run not flagged as fallback: %+v", r)
		}
	})

	t.Run("tracing", func(t *testing.T) {
		prev := h.Trace
		h.Trace = true
		defer func() { h.Trace = prev }()
		r := h.Get("ecology1", MethodSP, 8)
		if r == base {
			t.Fatal("cache returned an untraced run for a traced harness")
		}
		if len(r.Breakdown) == 0 {
			t.Fatal("traced run carries no phase breakdown")
		}
		if r.Cut != base.Cut || r.Time != base.Time ||
			r.CommTime != base.CommTime || r.Messages != base.Messages ||
			r.BytesSent != base.BytesSent {
			t.Fatalf("tracing changed modeled results:\n  traced:   %+v\n  untraced: %+v", r, base)
		}
	})

	// After every knob is restored, the original cache entry is live.
	if h.Get("ecology1", MethodSP, 8) != base {
		t.Fatal("restoring the environment did not restore the cache slot")
	}
}

// TestCompressToggledMidSweep: the graph cache is keyed by
// representation, so a harness whose Compress flag flips between Gets
// hands each run the representation it asked for — the compressed one
// wrapping the cached plain build — and the modeled fields stay equal.
func TestCompressToggledMidSweep(t *testing.T) {
	h := New(0.03, []int{8})
	base := h.Get("ecology1", MethodSP, 8)
	plain := h.Graph("ecology1").G
	h.Compress = true
	comp := h.Graph("ecology1").G
	if !comp.Compressed() || plain.Compressed() {
		t.Fatal("compressed harness handed the cached plain graph, or compressing mutated it")
	}
	if &comp.XAdj[0] != &plain.XAdj[0] {
		t.Fatal("compressed graph was regenerated instead of wrapping the cached plain build")
	}
	r := h.Get("ecology1", MethodSP, 8)
	if r == base {
		t.Fatal("cache returned a plain run for a compressed harness")
	}
	if r.Cut != base.Cut || r.Imbalance != base.Imbalance ||
		r.Time != base.Time || r.CommTime != base.CommTime ||
		r.Messages != base.Messages || r.BytesSent != base.BytesSent {
		t.Fatalf("compression changed modeled results:\n  compressed: %+v\n  plain:      %+v", r, base)
	}
	h.Compress = false
	if h.Graph("ecology1").G != plain {
		t.Fatal("switching Compress back did not return the cached plain graph")
	}
}
