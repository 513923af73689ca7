package core

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

func TestPartitionKWayGrid(t *testing.T) {
	g := gen.Grid2D(32, 32)
	for _, k := range []int{1, 2, 4, 8} {
		res, err := PartitionKWay(g.G, k, 16, DefaultOptions(2))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if res.K != k {
			t.Fatalf("k=%d: K=%d", k, res.K)
		}
		w := graph.PartWeights(g.G, res.Part, k)
		ideal := int64(g.G.NumVertices() / k)
		for i, wi := range w {
			if wi < ideal*85/100 || wi > ideal*115/100 {
				t.Fatalf("k=%d part %d weight %d (ideal %d)", k, i, wi, ideal)
			}
		}
		if got := graph.CutSize(g.G, res.Part); got != res.EdgeCut {
			t.Fatalf("k=%d: cut mismatch %d vs %d", k, res.EdgeCut, got)
		}
		if k > 1 && (res.EdgeCut <= 0 || res.EdgeCut > 600) {
			t.Fatalf("k=%d: implausible cut %d", k, res.EdgeCut)
		}
	}
}

func TestPartitionKWayTimeIsCriticalPath(t *testing.T) {
	g := gen.DelaunayRandom(8000, 4)
	k2, err := PartitionKWay(g.G, 2, 16, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	k8, err := PartitionKWay(g.G, 8, 16, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	// More levels cost more, but far less than 7 sequential bisections.
	if k8.Time <= k2.Time {
		t.Fatalf("k=8 time %v not above k=2 time %v", k8.Time, k2.Time)
	}
	if k8.Time > 7*k2.Time {
		t.Fatalf("k=8 time %v suggests no parallelism across siblings (k=2: %v)", k8.Time, k2.Time)
	}
}

func TestPartitionKWayRejectsNonPowerOfTwo(t *testing.T) {
	g := gen.Grid2D(8, 8)
	res, err := PartitionKWay(g.G, 3, 4, DefaultOptions(1))
	if err == nil || res != nil {
		t.Fatalf("k=3: got %v, %v; want an error", res, err)
	}
	if !strings.Contains(err.Error(), "power of two") {
		t.Fatalf("k=3: error %q does not name the constraint", err)
	}
}

// TestPartitionKWayReturnsRankFailure: a rank failure inside one
// bisection comes back as an error carrying the *mpi.RankError, not as
// a panic.
func TestPartitionKWayReturnsRankFailure(t *testing.T) {
	g := gen.Grid2D(32, 32)
	opt := DefaultOptions(3)
	opt.Model.Faults = mpi.NewFaultPlan().Truncate(1, 38)
	res, err := PartitionKWay(g.G, 4, 4, opt)
	if err == nil || res != nil {
		t.Fatalf("got %v, %v; want an error", res, err)
	}
	var re *mpi.RankError
	if !errors.As(err, &re) {
		t.Fatalf("want a wrapped *mpi.RankError, got %T: %v", err, err)
	}
}
