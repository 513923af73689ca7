package geopart

import (
	"math"
	"testing"

	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/refine"
)

// TestPartitionGridQuality: on a grid with natural coordinates, the
// geometric partitioner must find a near-straight cut: a 40x40 grid's
// optimal bisection cuts 40 edges; accept up to 2.5x.
func TestPartitionGridQuality(t *testing.T) {
	g := gen.Grid2D(40, 40)
	for _, cfg := range []Config{G30(), G7(), G7NL()} {
		part, st, err := Partition(g.G, g.Coords, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := graph.CutSize(g.G, part); got != st.Cut {
			t.Fatalf("reported %d actual %d", st.Cut, got)
		}
		if st.Cut > 100 {
			t.Fatalf("cut %d too large for a 40x40 grid", st.Cut)
		}
		if imb := graph.Imbalance(g.G, part, 2); imb > 0.051 {
			t.Fatalf("imbalance %v", imb)
		}
	}
}

// TestG30NoWorseThanG7 on a few meshes (more tries can only help since
// the best candidate is kept).
func TestG30NotWorseOnAverage(t *testing.T) {
	var g30Sum, g7Sum int64
	for seed := int64(1); seed <= 4; seed++ {
		g := gen.DelaunayRandom(3000, seed)
		_, s30, err30 := Partition(g.G, g.Coords, G30())
		_, s7, err7 := Partition(g.G, g.Coords, G7NL())
		if err30 != nil || err7 != nil {
			t.Fatal(err30, err7)
		}
		g30Sum += s30.Cut
		g7Sum += s7.Cut
	}
	if g30Sum > g7Sum*11/10 {
		t.Fatalf("G30 total %d much worse than G7-NL %d", g30Sum, g7Sum)
	}
}

func TestRCBBisectExactOnGrid(t *testing.T) {
	g := gen.Grid2D(16, 32) // wider than tall: cut along x median
	part, st := RCBBisect(g.G, g.Coords)
	if st.Cut != 16 {
		t.Fatalf("cut = %d, want 16", st.Cut)
	}
	if imb := graph.Imbalance(g.G, part, 2); imb != 0 {
		t.Fatalf("imbalance %v", imb)
	}
}

func TestRCBKWay(t *testing.T) {
	g := gen.Grid2D(16, 16)
	part, err := RCB(g.G, g.Coords, 4)
	if err != nil {
		t.Fatal(err)
	}
	w := graph.PartWeights(g.G, part, 4)
	for i, wi := range w {
		if wi != 64 {
			t.Fatalf("part %d weight %d, want 64", i, wi)
		}
	}
}

func TestBisectByValuesTies(t *testing.T) {
	vals := []float64{1, 1, 1, 1, 1, 1}
	part := make([]int32, 6)
	bisectByValues(vals, part)
	n0 := 0
	for _, p := range part {
		if p == 0 {
			n0++
		}
	}
	if n0 != 3 {
		t.Fatalf("tie split %d/3", n0)
	}
}

// TestParallelMatchesSequentialIntent: ParallelPartition without
// refinement should produce a cut in the same ballpark as the
// sequential G7NL on the same coordinates (not identical: sampled
// medians and sampled centerpoints differ).
func TestParallelCloseToSequential(t *testing.T) {
	g := gen.DelaunayRandom(6000, 2)
	_, seq, err := Partition(g.G, g.Coords, G7NL())
	if err != nil {
		t.Fatal(err)
	}
	views := embed.SplitCoords(g.G, g.Coords, 4)
	cfg := ParallelConfig{Config: G7NL()}
	var cut int64
	mpi.Run(4, mpi.DefaultModel(), func(c *mpi.Comm) {
		res := ParallelPartition(c, g.G, views[c.Rank()], cfg)
		if c.Rank() == 0 {
			cut = res.Cut
		}
	})
	hi := seq.Cut * 2
	if cut > hi || cut <= 0 {
		t.Fatalf("parallel cut %d vs sequential %d", cut, seq.Cut)
	}
}

// TestParallelRefinementNeverHurts: with refinement the cut must be <=
// the raw geometric cut.
func TestParallelRefinementNeverHurts(t *testing.T) {
	g := gen.DelaunayRandom(6000, 8)
	views := embed.SplitCoords(g.G, g.Coords, 8)
	var withR, withoutR, before int64
	mpi.Run(8, mpi.DefaultModel(), func(c *mpi.Comm) {
		res := ParallelPartition(c, g.G, views[c.Rank()], DefaultParallelConfig())
		if c.Rank() == 0 {
			withR, before = res.Cut, res.CutBefore
		}
	})
	views2 := embed.SplitCoords(g.G, g.Coords, 8)
	mpi.Run(8, mpi.DefaultModel(), func(c *mpi.Comm) {
		res := ParallelPartition(c, g.G, views2[c.Rank()], ParallelConfig{Config: G7NL()})
		if c.Rank() == 0 {
			withoutR = res.Cut
		}
	})
	if withR > before {
		t.Fatalf("refined cut %d worse than raw %d", withR, before)
	}
	if before != withoutR {
		t.Fatalf("raw cuts differ with/without refinement: %d vs %d", before, withoutR)
	}
	if withR > withoutR {
		t.Fatalf("refinement hurt: %d vs %d", withR, withoutR)
	}
}

// TestParallelPartitionSidesConsistent: assembled sides must reproduce
// the reported cut and weights.
func TestParallelPartitionSidesConsistent(t *testing.T) {
	g := gen.Grid2D(50, 50)
	p := 8
	views := embed.SplitCoords(g.G, g.Coords, p)
	part := make([]int32, g.G.NumVertices())
	var cut int64
	var sw [2]int64
	mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
		res := ParallelPartition(c, g.G, views[c.Rank()], DefaultParallelConfig())
		for i, id := range res.OwnedIDs {
			part[id] = res.Side[i]
		}
		if c.Rank() == 0 {
			cut = res.Cut
			sw = res.SideW
		}
	})
	if got := graph.CutSize(g.G, part); got != cut {
		t.Fatalf("assembled cut %d vs reported %d", got, cut)
	}
	w := graph.PartWeights(g.G, part, 2)
	if w[0] != sw[0] || w[1] != sw[1] {
		t.Fatalf("weights %v vs reported %v", w, sw)
	}
}

func TestParallelRCBMatchesSequentialOnGrid(t *testing.T) {
	g := gen.Grid2D(24, 48)
	_, seq := RCBBisect(g.G, g.Coords)
	views := embed.SplitCoords(g.G, g.Coords, 4)
	var cut int64
	mpi.Run(4, mpi.DefaultModel(), func(c *mpi.Comm) {
		res := ParallelRCB(c, g.G, views[c.Rank()])
		if c.Rank() == 0 {
			cut = res.Cut
		}
	})
	// Sampled median vs exact median: allow slack but the cut must be
	// a vertical-ish line (~24 edges), not a diagonal mess.
	if float64(cut) > float64(seq.Cut)*1.8 {
		t.Fatalf("parallel RCB cut %d vs sequential %d", cut, seq.Cut)
	}
}

func TestNormalizeCentersAndScales(t *testing.T) {
	coords := gen.Grid2D(21, 21).Coords
	norm := normalize(coords)
	var c float64
	for _, p := range norm {
		c += p.Norm()
	}
	// Median radius should be ~1 after normalisation.
	count := 0
	for _, p := range norm {
		if p.Norm() <= 1+1e-9 {
			count++
		}
	}
	frac := float64(count) / float64(len(norm))
	if math.Abs(frac-0.5) > 0.1 {
		t.Fatalf("fraction inside unit circle %v, want ~0.5", frac)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if sampleSize != 800 || refine.BalanceTol != 0.05 || c.Centerpoints != 1 {
		t.Fatalf("defaults = %+v, sample %d, tolerance %v", c, sampleSize, refine.BalanceTol)
	}
	if stripFactor != 8 || fmPasses != 4 {
		t.Fatalf("parallel constants: strip factor %v, FM passes %d", stripFactor, fmPasses)
	}
	if g := G30(); g.GreatCircles+g.LineSeps != 30 {
		t.Fatalf("G30 has %d tries", g.GreatCircles+g.LineSeps)
	}
	if g := G7(); g.GreatCircles+g.LineSeps != 7 {
		t.Fatalf("G7 has %d tries", g.GreatCircles+g.LineSeps)
	}
	if g := G7NL(); g.LineSeps != 0 {
		t.Fatal("G7NL has line separators")
	}
}

func TestPartitionSingleVertexAndTiny(t *testing.T) {
	b := graph.NewBuilder(1)
	g := b.Build()
	part, st, err := Partition(g, []geometry.Vec2{{X: 0, Y: 0}}, G7NL())
	if err != nil {
		t.Fatal(err)
	}
	if len(part) != 1 || st.Cut != 0 {
		t.Fatalf("single vertex: %v %+v", part, st)
	}
	g2 := gen.Grid2D(2, 2)
	part2, st2, err := Partition(g2.G, g2.Coords, G7NL())
	if err != nil {
		t.Fatal(err)
	}
	if graph.CutSize(g2.G, part2) != st2.Cut {
		t.Fatal("tiny grid cut mismatch")
	}
}

// TestEmptyGraph: every sequential entry point partitions the empty
// graph into the empty partition, in both dimensions.
func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	for _, in := range []seqInput{seqInput2D("2d", g, nil), seqInput3D("3d", g, nil)} {
		part, st, err := in.bisect(G30())
		if err != nil || len(part) != 0 || st.Cut != 0 {
			t.Fatalf("%s: Partition = %v %+v %v, want the empty partition", in.name, part, st, err)
		}
		if part, st := in.rcb(); len(part) != 0 || st.Cut != 0 {
			t.Fatalf("%s: RCBBisect = %v %+v, want the empty partition", in.name, part, st)
		}
		if part, err := in.kway(4); err != nil || len(part) != 0 {
			t.Fatalf("%s: RCB = %v %v, want the empty partition", in.name, part, err)
		}
	}
}

func TestValueAbove(t *testing.T) {
	if !valueAbove(2, 0, 1, 99) || valueAbove(0, 0, 1, 99) {
		t.Fatal("value comparison wrong")
	}
	if !valueAbove(1, 100, 1, 99) || valueAbove(1, 98, 1, 99) {
		t.Fatal("id tie-break wrong")
	}
}
