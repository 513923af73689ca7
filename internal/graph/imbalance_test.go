package graph

import "testing"

// TestImbalance2Table pins the canonical bisection imbalance on the
// boundary cases that used to diverge between the metrics layer and the
// geometric partitioner's private copy: empty graphs, empty sides, and
// odd totals whose division cannot be exact.
func TestImbalance2Table(t *testing.T) {
	// Expected values go through the same runtime float operations as
	// the implementation (Go constant arithmetic is exact and would
	// round differently).
	oddSplit := 2 * float64(4) / float64(7)
	oddSplit -= 1
	huge := 2 * float64(int64(1)<<40) / float64(int64(1)<<40+1)
	huge -= 1
	sixtyForty := 2 * float64(60) / float64(100)
	sixtyForty -= 1
	cases := []struct {
		w0, w1 int64
		want   float64
	}{
		{0, 0, 0},            // empty graph: defined as balanced
		{0, 10, 1},           // one side empty: 100% over ideal
		{10, 0, 1},           // symmetric in the arguments
		{5, 5, 0},            // perfect balance
		{3, 4, oddSplit},     // odd total: inexact division
		{4, 3, oddSplit},     // same split, swapped
		{60, 40, sixtyForty}, // a 60/40 split is 20% over ideal
		{1, 1 << 40, huge},   // huge side
	}
	for _, tc := range cases {
		if got := Imbalance2(tc.w0, tc.w1); got != tc.want {
			t.Errorf("Imbalance2(%d, %d) = %v, want %v", tc.w0, tc.w1, got, tc.want)
		}
	}
}

// TestImbalanceDelegatesToImbalance2: the k=2 metrics entry point and
// the side-weight form must agree bit-for-bit on every partition,
// including one with an entirely empty side.
func TestImbalanceDelegatesToImbalance2(t *testing.T) {
	g := path(7) // odd vertex count: unit weights give an odd total
	parts := [][]int32{
		{0, 0, 0, 1, 1, 1, 1}, // the 3/4 split
		{0, 0, 0, 0, 0, 0, 0}, // side 1 empty
		{1, 1, 1, 1, 1, 1, 1}, // side 0 empty
		{0, 1, 0, 1, 0, 1, 0}, // alternating
	}
	for _, part := range parts {
		w := PartWeights(g, part, 2)
		if got, want := Imbalance(g, part, 2), Imbalance2(w[0], w[1]); got != want {
			t.Errorf("part %v: Imbalance = %v, Imbalance2 = %v", part, got, want)
		}
	}
	// Weighted vertices must flow through identically.
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetVertexWeight(0, 7)
	wg := b.Build()
	part := []int32{0, 1, 1}
	w := PartWeights(wg, part, 2)
	if got, want := Imbalance(wg, part, 2), Imbalance2(w[0], w[1]); got != want {
		t.Errorf("weighted: Imbalance = %v, Imbalance2 = %v", got, want)
	}
}
