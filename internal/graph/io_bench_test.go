package graph_test

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// BenchmarkIORoundTrip serialises a suite-scale graph and parses it
// back through the byte-slice parallel parsers; the write lanes pin
// that the buffered AppendInt writers are not slower than the readers.
func BenchmarkIORoundTrip(b *testing.B) {
	g := gen.Grid2D(200, 200).G
	benchRead := func(data []byte, mm bool) func(*testing.B) {
		return func(b *testing.B) {
			read := graph.ReadMETIS
			if mm {
				read = graph.ReadMatrixMarket
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := read(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				if got.NumEdges() != g.NumEdges() {
					b.Fatalf("edges %d, want %d", got.NumEdges(), g.NumEdges())
				}
			}
		}
	}
	var metis, mm bytes.Buffer
	if err := graph.WriteMETIS(&metis, g); err != nil {
		b.Fatal(err)
	}
	if err := graph.WriteMatrixMarket(&mm, g); err != nil {
		b.Fatal(err)
	}
	b.Run("metis", benchRead(metis.Bytes(), false))
	b.Run("matrixmarket", benchRead(mm.Bytes(), true))
	b.Run("write-metis", func(b *testing.B) {
		b.SetBytes(int64(metis.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			buf.Grow(metis.Len())
			if err := graph.WriteMETIS(&buf, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("write-matrixmarket", func(b *testing.B) {
		b.SetBytes(int64(mm.Len()))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var buf bytes.Buffer
			buf.Grow(mm.Len())
			if err := graph.WriteMatrixMarket(&buf, g); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestIORoundTripPreservesGraph pins the round trip the benchmark
// measures: read(write(g)) must reproduce the adjacency exactly.
func TestIORoundTripPreservesGraph(t *testing.T) {
	g := gen.Grid2D(30, 17).G
	var buf bytes.Buffer
	if err := graph.WriteMETIS(&buf, g); err != nil {
		t.Fatal(err)
	}
	got, err := graph.ReadMETIS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != g.NumVertices() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d",
			got.NumVertices(), got.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for i := range g.XAdj {
		if got.XAdj[i] != g.XAdj[i] {
			t.Fatalf("XAdj[%d] = %d, want %d", i, got.XAdj[i], g.XAdj[i])
		}
	}
	for i := range g.Adjncy {
		if got.Adjncy[i] != g.Adjncy[i] {
			t.Fatalf("Adjncy[%d] = %d, want %d", i, got.Adjncy[i], g.Adjncy[i])
		}
	}
}
