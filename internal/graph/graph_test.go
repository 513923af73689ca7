package graph

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func TestBuilderDeduplicatesAndSymmetrizes(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(2, 3)
	b.AddEdge(0, 0) // self-loop dropped
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	// The duplicate pair must have merged weight 2.
	if w := g.ArcWeight(g.XAdj[0]); w != 2 {
		t.Fatalf("merged weight = %d, want 2", w)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddWeightedEdge(0, 1, 5)
	b.AddWeightedEdge(1, 2, 7)
	b.SetVertexWeight(2, 9)
	g := b.Build()
	if g.VertexWeight(2) != 9 || g.VertexWeight(0) != 1 {
		t.Fatalf("vertex weights wrong: %v", g.VWgt)
	}
	if g.TotalVertexWeight() != 11 {
		t.Fatalf("total weight = %d, want 11", g.TotalVertexWeight())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesAsymmetry(t *testing.T) {
	g := &Graph{XAdj: []int32{0, 1, 1}, Adjncy: []int32{1}}
	if err := g.Validate(); err == nil {
		t.Fatal("asymmetric graph passed validation")
	}
}

func TestCutAndImbalance(t *testing.T) {
	g := path(4) // 0-1-2-3
	part := []int32{0, 0, 1, 1}
	if c := CutSize(g, part); c != 1 {
		t.Fatalf("cut = %d, want 1", c)
	}
	if imb := Imbalance(g, part, 2); imb != 0 {
		t.Fatalf("imbalance = %v, want 0", imb)
	}
	sep := SeparatorEdges(g, part)
	if len(sep) != 1 || sep[0] != [2]int32{1, 2} {
		t.Fatalf("separator = %v", sep)
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.Build()
	label, n := Components(g)
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if label[2] != label[3] || label[3] != label[4] {
		t.Fatal("connected vertices got different labels")
	}
	if label[0] == label[2] || label[0] == label[5] {
		t.Fatal("disconnected vertices share a label")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := path(5)
	sub, back := InducedSubgraph(g, []int32{1, 2, 4})
	if sub.NumVertices() != 3 {
		t.Fatalf("sub n = %d", sub.NumVertices())
	}
	if sub.NumEdges() != 1 { // only 1-2 survives
		t.Fatalf("sub m = %d, want 1", sub.NumEdges())
	}
	if !reflect.DeepEqual(back, []int32{1, 2, 4}) {
		t.Fatalf("back map = %v", back)
	}
}

func randomGraph(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddWeightedEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int32(rng.Intn(5)+1))
	}
	// Make it connected for round-trip interest.
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

func TestMETISRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g := randomGraph(40, 120, seed)
		var buf bytes.Buffer
		if err := WriteMETIS(&buf, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadMETIS(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got.XAdj, g.XAdj) || !reflect.DeepEqual(got.Adjncy, g.Adjncy) {
			t.Fatalf("seed %d: structure mismatch", seed)
		}
		if !reflect.DeepEqual(got.EWgt, g.EWgt) {
			t.Fatalf("seed %d: edge weights mismatch", seed)
		}
	}
}

func TestMETISVertexWeights(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetVertexWeight(0, 3)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.VertexWeight(0) != 3 || got.VertexWeight(1) != 1 {
		t.Fatalf("vertex weights = %v", got.VWgt)
	}
}

// TestMETISRoundTripIsolatedVertices: WriteMETIS writes an empty line
// for a vertex with no neighbours, and both readers (and the serial
// oracle) read it back as one, wherever the isolated vertices sit and
// whatever weights the file carries.
func TestMETISRoundTripIsolatedVertices(t *testing.T) {
	for _, tc := range []struct {
		name           string
		vweights, ewgt bool
	}{
		{"plain", false, false},
		{"vertex-weights", true, false},
		{"edge-weights", false, true},
		{"both-weights", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Vertices 0, 3 and 6 are isolated: first, middle and last.
			b := NewBuilder(7)
			for i, e := range [][2]int32{{1, 2}, {2, 4}, {4, 5}, {1, 5}} {
				w := int32(1)
				if tc.ewgt {
					w = int32(i + 2)
				}
				b.AddWeightedEdge(e[0], e[1], w)
			}
			if tc.vweights {
				for v := int32(0); v < 7; v++ {
					b.SetVertexWeight(v, v+1)
				}
			}
			g := b.Build()
			var buf bytes.Buffer
			if err := WriteMETIS(&buf, g); err != nil {
				t.Fatal(err)
			}
			for name, read := range map[string]func(io.Reader) (*Graph, error){
				"ReadMETIS": ReadMETIS, "serial": readMETISSerial,
			} {
				got, err := read(bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("%s: %v\nfile:\n%s", name, err, buf.String())
				}
				if !reflect.DeepEqual(got.XAdj, g.XAdj) || !reflect.DeepEqual(got.Adjncy, g.Adjncy) ||
					!reflect.DeepEqual(got.EWgt, g.EWgt) || !reflect.DeepEqual(got.VWgt, g.VWgt) {
					t.Fatalf("%s: round trip mismatch\nfile:\n%s", name, buf.String())
				}
			}
		})
	}
	// The file WriteMETIS produces for three vertices and the one edge
	// 0–2.
	g, err := ReadMETIS(bytes.NewBufferString("3 1\n3\n\n1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 1 || g.Degree(1) != 0 {
		t.Fatalf("n=%d m=%d deg(1)=%d", g.NumVertices(), g.NumEdges(), g.Degree(1))
	}
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g := randomGraph(30, 80, 9)
	g.EWgt = nil // pattern format drops weights
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.XAdj, g.XAdj) || !reflect.DeepEqual(got.Adjncy, g.Adjncy) {
		t.Fatal("structure mismatch after MatrixMarket round trip")
	}
}

func TestReadMETISRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "x y", "2 1\n3\n1\n", "2 5\n2\n1\n"} {
		if _, err := ReadMETIS(bytes.NewBufferString(in)); err == nil {
			t.Fatalf("input %q: expected error", in)
		}
	}
}

// TestBlockRangeProperties: ranges partition [0,n) in rank order.
func TestBlockRangeProperties(t *testing.T) {
	f := func(nRaw uint16, pRaw uint8) bool {
		n := int(nRaw)
		p := int(pRaw)%64 + 1
		prevEnd := 0
		for r := 0; r < p; r++ {
			begin, end := BlockRange(n, p, r)
			if begin != prevEnd || end < begin {
				return false
			}
			prevEnd = end
		}
		return prevEnd == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCutSizeSymmetric: the cut is invariant under part-id swap.
func TestCutSizeSymmetric(t *testing.T) {
	g := randomGraph(50, 150, 3)
	rng := rand.New(rand.NewSource(1))
	part := make([]int32, 50)
	flip := make([]int32, 50)
	for i := range part {
		part[i] = int32(rng.Intn(2))
		flip[i] = 1 - part[i]
	}
	if CutSize(g, part) != CutSize(g, flip) {
		t.Fatal("cut changed under part swap")
	}
}

func TestPartWeights(t *testing.T) {
	g := path(4)
	w := PartWeights(g, []int32{0, 1, 1, 2}, 3)
	if !reflect.DeepEqual(w, []int64{1, 2, 1}) {
		t.Fatalf("weights = %v", w)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := randomGraph(10, 20, 5)
	c := g.Clone()
	c.Adjncy[0] = -99
	if g.Adjncy[0] == -99 {
		t.Fatal("clone shares storage")
	}
}

// TestBuilderPropertyValidates: any random edge soup must build into a
// graph that passes Validate, with every added (non-loop) pair present.
func TestBuilderPropertyValidates(t *testing.T) {
	f := func(pairs []uint16, nRaw uint8) bool {
		n := int(nRaw)%50 + 2
		b := NewBuilder(n)
		type key struct{ u, v int32 }
		want := make(map[key]bool)
		for _, pr := range pairs {
			u := int32(int(pr>>8) % n)
			v := int32(int(pr&0xff) % n)
			b.AddEdge(u, v)
			if u != v {
				if u > v {
					u, v = v, u
				}
				want[key{u, v}] = true
			}
		}
		g := b.Build()
		if g.Validate() != nil {
			return false
		}
		if g.NumEdges() != len(want) {
			return false
		}
		for k := range want {
			found := false
			for _, nb := range g.Neighbors(k.u) {
				if nb == k.v {
					found = true
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestImbalanceProperty: imbalance is non-negative and 0 only for an
// exactly even split of unit weights.
func TestImbalanceProperty(t *testing.T) {
	f := func(sides []bool) bool {
		n := len(sides)
		if n < 2 {
			return true
		}
		b := NewBuilder(n)
		for i := 0; i+1 < n; i++ {
			b.AddEdge(int32(i), int32(i+1))
		}
		g := b.Build()
		part := make([]int32, n)
		n1 := 0
		for i, s := range sides {
			if s {
				part[i] = 1
				n1++
			}
		}
		imb := Imbalance(g, part, 2)
		if imb < 0 {
			return false
		}
		even := n%2 == 0 && n1 == n/2
		return !even || imb == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
