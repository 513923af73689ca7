package core

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/mpi"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files under testdata")

// tracedRun partitions the deterministic 32x32 grid at p ranks with a
// fresh Recorder attached.
func tracedRun(t *testing.T, p int) (*Result, *trace.Recorder) {
	t.Helper()
	g := gen.Grid2D(32, 32)
	opt := DefaultOptions(3)
	rec := trace.New()
	opt.Model.Trace = rec
	res, err := PartitionChecked(g.G, p, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test -run TestGolden -update-golden ./internal/core/` to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s drifted from the golden file; inspect the diff and re-run with -update-golden if intended.\n--- got ---\n%s", name, got)
	}
}

// TestGoldenTraceExports pins the exact rendered breakdown table and
// Chrome trace JSON for the deterministic grid run at P=1 and P=4. The
// virtual clocks are platform-independent, so these bytes must never
// drift unless the cost model or the exporter deliberately changes.
func TestGoldenTraceExports(t *testing.T) {
	for _, p := range []int{1, 4} {
		_, rec := tracedRun(t, p)
		checkGolden(t, fmt.Sprintf("breakdown_p%d.txt", p), []byte(rec.Breakdown().Table()))
		var buf bytes.Buffer
		if err := rec.ChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, fmt.Sprintf("trace_p%d.json", p), buf.Bytes())
	}
}

// TestPhaseSpansSumToFinalClocks is the acceptance requirement that the
// per-phase virtual-time spans telescope: for every rank, phase
// durations sum to the rank's final clock within 1e-9.
func TestPhaseSpansSumToFinalClocks(t *testing.T) {
	for _, p := range []int{1, 4, 16} {
		res, rec := tracedRun(t, p)
		b := rec.Breakdown()
		if len(b.Ranks) != p {
			t.Fatalf("P=%d: breakdown covers %d ranks", p, len(b.Ranks))
		}
		for r, phases := range b.Ranks {
			var sum float64
			for _, ph := range phases {
				sum += ph.Time
			}
			if diff := sum - res.Stats[r].Time; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("P=%d rank %d: phase spans sum to %.12g, final clock %.12g",
					p, r, sum, res.Stats[r].Time)
			}
		}
	}
}

// TestCommChargesAttributed: every collective or replayed charge that
// books communication time carries its Section 3.1 split, so the
// breakdown's ts/tw/to columns account for all of it. It traces both
// baselines, whose projections and refinement passes replay per-peer
// exchanges and whose Pt-Scotch variant replays the fold gathers, and
// the pipeline with two trials, whose combine replays a per-peer
// exchange.
func TestCommChargesAttributed(t *testing.T) {
	g := gen.Grid2D(32, 32).G
	const p = 4
	check := func(name string, rec *trace.Recorder) {
		t.Helper()
		for r, rt := range rec.Ranks() {
			for _, ev := range rt.Events() {
				if (ev.Kind == trace.KindColl || ev.Kind == trace.KindCharge) && ev.Comm > 0 && !(ev.TS+ev.TW+ev.TO > 0) {
					t.Fatalf("%s rank %d: %s booked %g s of communication with no ts/tw/to split", name, r, ev.Op, ev.Comm)
				}
			}
		}
	}
	for _, b := range []struct {
		name string
		cfg  baseline.Config
	}{{"ParMetis", baseline.ParMetisLike(3)}, {"Pt-Scotch", baseline.PtScotchLike(3)}} {
		name, cfg := b.name, b.cfg
		rec := trace.New()
		cfg.Model = mpi.DefaultModel()
		cfg.Model.Trace = rec
		if _, err := baseline.PartitionChecked(g, p, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name, rec)
	}
	opt := DefaultOptions(3)
	opt.Trials = 2
	rec := trace.New()
	opt.Model.Trace = rec
	if _, err := PartitionChecked(g, p, opt); err != nil {
		t.Fatalf("trials=2: %v", err)
	}
	check("trials=2", rec)
}

// TestPipelineInvariantsAcrossP runs the full checker stack — runtime
// trace invariants plus partition invariants — at every acceptance rank
// count.
func TestPipelineInvariantsAcrossP(t *testing.T) {
	g := gen.Grid2D(48, 48)
	for _, p := range []int{1, 4, 16, 64} {
		opt := DefaultOptions(7)
		rec := trace.New()
		opt.Model.Trace = rec
		res, err := PartitionChecked(g.G, p, opt)
		if err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if err := rec.CheckInvariants(); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
		if err := CheckResult(g.G, res); err != nil {
			t.Fatalf("P=%d: %v", p, err)
		}
	}
}

// TestCheckPartitionCatchesCorruption: the partition half of
// -check-invariants must reject a tampered result.
func TestCheckPartitionCatchesCorruption(t *testing.T) {
	g := gen.Grid2D(24, 24)
	res, err := PartitionChecked(g.G, 4, DefaultOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckResult(g.G, res); err != nil {
		t.Fatalf("healthy result rejected: %v", err)
	}
	bad := make([]int32, len(res.Part))
	copy(bad, res.Part)
	bad[0] = 1 - bad[0]
	if err := CheckPartition(g.G, bad, res.Cut, res.Imbalance); err == nil {
		t.Fatal("flipped vertex not detected")
	}
	if err := CheckPartition(g.G, res.Part, res.Cut+1, res.Imbalance); err == nil {
		t.Fatal("wrong cut not detected")
	}
	if err := CheckPartition(g.G, res.Part, res.Cut, res.Imbalance+1e-9); err == nil {
		t.Fatal("wrong imbalance not detected")
	}
	bad2 := make([]int32, len(res.Part))
	copy(bad2, res.Part)
	bad2[1] = 2
	if err := CheckPartition(g.G, bad2, res.Cut, res.Imbalance); err == nil {
		t.Fatal("out-of-range side not detected")
	}
}
