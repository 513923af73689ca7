package core

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// TestPartitionCheckedReportsInjectedFault: a kill fault inside the
// full pipeline surfaces as a RankError naming the rank and the
// pipeline phase, never as a hang or panic.
func TestPartitionCheckedReportsInjectedFault(t *testing.T) {
	g := gen.Grid2D(32, 32)
	opt := DefaultOptions(3)
	opt.Model.Faults = mpi.NewFaultPlan().Kill(1, 4)
	_, err := PartitionChecked(g.G, 4, opt)
	if err == nil {
		t.Fatal("expected error")
	}
	var re *mpi.RankError
	if !errors.As(err, &re) || re.Rank != 1 {
		t.Fatalf("want RankError at rank 1, got %v", err)
	}
	var inj *mpi.InjectedFault
	if !errors.As(err, &inj) {
		t.Fatalf("error does not wrap the injected fault: %v", err)
	}
	if re.Phase == "" {
		t.Fatalf("no pipeline phase recorded: %+v", re)
	}
}

// TestPartitionCheckedHealthyMatchesPartition: without faults the
// checked variant is bit-identical to the panicking one.
func TestPartitionCheckedHealthyMatchesPartition(t *testing.T) {
	g := gen.Grid2D(32, 32)
	a := mustPartition(t, g.G, 8, DefaultOptions(5))
	b, err := PartitionChecked(g.G, 8, DefaultOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cut != b.Cut || a.Times.Total != b.Times.Total || a.Times.TotalComm != b.Times.TotalComm {
		t.Fatalf("checked run diverged: %+v vs %+v", a.Times, b.Times)
	}
}

// TestSequentialFallbackProducesValidBisection: the recovery path must
// deliver a balanced two-way partition covering every vertex, flagged
// as a fallback.
func TestSequentialFallbackProducesValidBisection(t *testing.T) {
	g := gen.Grid2D(40, 40)
	res, err := SequentialFallback(g.G, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fallback {
		t.Fatal("fallback result not flagged")
	}
	if len(res.Part) != g.G.NumVertices() {
		t.Fatalf("partition covers %d of %d vertices", len(res.Part), g.G.NumVertices())
	}
	for _, s := range res.Part {
		if s != 0 && s != 1 {
			t.Fatalf("side %d out of range", s)
		}
	}
	if got := graph.CutSize(g.G, res.Part); got != res.Cut {
		t.Fatalf("reported cut %d, actual %d", res.Cut, got)
	}
	if res.Imbalance > 0.1 {
		t.Fatalf("imbalance %v", res.Imbalance)
	}
}

// TestSequentialFallbackIgnoresFaultyCallerModel: the fallback always
// runs under a pristine model, so it succeeds even when every parallel
// configuration the caller holds is poisoned with faults.
func TestSequentialFallbackIgnoresFaultyCallerModel(t *testing.T) {
	g := gen.Grid2D(24, 24)
	opt := DefaultOptions(9)
	opt.Model.Faults = mpi.NewFaultPlan().Kill(0, 0)
	if _, err := PartitionChecked(g.G, 4, opt); err == nil {
		t.Fatal("poisoned run unexpectedly succeeded")
	}
	res, err := SequentialFallback(g.G, 9)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cut <= 0 {
		t.Fatalf("fallback cut %d", res.Cut)
	}
}
