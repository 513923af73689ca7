package graph_test

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// parseBoth runs a reader against the serial and parallel paths and
// asserts they produce identical graphs or identical errors, returning
// the parallel result.
func parseBoth(t *testing.T, data []byte, mm bool) (*graph.Graph, error) {
	t.Helper()
	read, oracle := graph.ReadMETIS, graph.ReadMETISSerial
	if mm {
		read, oracle = graph.ReadMatrixMarket, graph.ReadMatrixMarketSerial
	}
	sg, serr := oracle(bytes.NewReader(data))
	pg, perr := read(bytes.NewReader(data))
	if (serr == nil) != (perr == nil) {
		t.Fatalf("error mismatch: serial=%v parallel=%v\ninput: %q", serr, perr, data)
	}
	if serr != nil {
		if serr.Error() != perr.Error() {
			t.Fatalf("error text mismatch:\nserial:   %v\nparallel: %v\ninput: %q", serr, perr, data)
		}
		return nil, perr
	}
	assertSameParsedGraph(t, sg, pg, data)
	return pg, nil
}

func assertSameParsedGraph(t *testing.T, want, got *graph.Graph, input []byte) {
	t.Helper()
	fail := func(f string, args ...any) {
		t.Helper()
		t.Fatalf(f+"\ninput: %q", append(args, input)...)
	}
	if want.NumVertices() != got.NumVertices() {
		fail("n=%d want %d", got.NumVertices(), want.NumVertices())
	}
	for i := range want.XAdj {
		if want.XAdj[i] != got.XAdj[i] {
			fail("XAdj[%d]=%d want %d", i, got.XAdj[i], want.XAdj[i])
		}
	}
	for i := range want.Adjncy {
		if want.Adjncy[i] != got.Adjncy[i] {
			fail("Adjncy[%d]=%d want %d", i, got.Adjncy[i], want.Adjncy[i])
		}
	}
	if (want.EWgt == nil) != (got.EWgt == nil) {
		fail("EWgt nil-ness %v want %v", got.EWgt == nil, want.EWgt == nil)
	}
	for i := range want.EWgt {
		if want.EWgt[i] != got.EWgt[i] {
			fail("EWgt[%d]=%d want %d", i, got.EWgt[i], want.EWgt[i])
		}
	}
	if (want.VWgt == nil) != (got.VWgt == nil) {
		fail("VWgt nil-ness %v want %v", got.VWgt == nil, want.VWgt == nil)
	}
	for i := range want.VWgt {
		if want.VWgt[i] != got.VWgt[i] {
			fail("VWgt[%d]=%d want %d", i, got.VWgt[i], want.VWgt[i])
		}
	}
}

// metisCases covers the adversarial shapes the parallel chunking must
// not change: comments and blank lines between vertex lines, CRLF,
// vertex and edge weights, unicode whitespace, trailing blank lines,
// truncation, and every serial error path.
var metisCases = []struct {
	name string
	in   string
}{
	{"plain", "3 2\n2\n1 3\n2\n"},
	{"comments-everywhere", "% c\n\n3 2\n% mid\n2\n\n1 3\n% tail\n2\n\n\n"},
	{"crlf", "3 2\r\n2\r\n1 3\r\n2\r\n"},
	{"edge-weights", "3 2 1\n2 7\n1 7 3 9\n2 9\n"},
	{"vertex-weights", "3 2 10\n5 2\n6 1 3\n7 2\n"},
	{"both-weights", "3 2 11\n5 2 7\n6 1 7 3 9\n7 2 9\n"},
	{"indented-comment", "  % note\n2 1\n2\n1\n"},
	{"unicode-space", "2 1\n2 \n1\n"},
	{"empty-vertex-lines", "3 1\n2\n1\n\n% pad\n"},
	{"truncated", "3 2\n2\n1 3\n"},
	{"empty", ""},
	{"only-comments", "% a\n% b\n"},
	{"bad-header", "x 2\n"},
	{"short-header", "7\n"},
	{"bad-fmt", "2 1 12\n2\n1\n"},
	{"bad-neighbour", "2 1\nz\n1\n"},
	{"neighbour-oor", "2 1\n3\n1\n"},
	{"self-loop", "2 1\n1\n1\n"},
	{"duplicate", "2 2\n2 2\n1 1\n"},
	{"asymmetric", "3 2\n2\n1\n2\n"},
	{"weight-asymmetric", "2 1 1\n2 5\n1 6\n"},
	{"missing-edge-weight", "2 1 1\n2\n1 5\n"},
	{"missing-vertex-weight", "2 1 10\n\n1\n"},
	{"edge-count-mismatch", "3 5\n2\n1 3\n2\n"},
	{"huge-number", "2 1\n99999999999999999999999\n1\n"},
	{"negative-neighbour", "2 1\n-1\n1\n"},
	{"no-trailing-newline", "3 2\n2\n1 3\n2"},
	// After the header a blank line is a vertex with no neighbours.
	{"isolated-vertex", "3 1\n3\n\n1\n"},
	{"isolated-first-and-last", "% c\n\n4 1\n\n3\n% mid\n2\n\n"},
	{"isolated-weighted", "3 1 11\n4 3 7\n5\n6 1 7\n"},
	{"isolated-last-missing", "3 1\n2\n1\n"},
}

func TestParallelMETISMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		for _, tc := range metisCases {
			t.Run(tc.name, func(t *testing.T) {
				parseBoth(t, []byte(tc.in), false)
			})
		}
	}
}

var mmCases = []struct {
	name string
	in   string
}{
	{"pattern-symmetric", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 2\n"},
	{"values", "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 1.5\n3 2 2.5\n"},
	{"general", "%%MatrixMarket matrix coordinate pattern general\n3 3 4\n1 2\n2 1\n2 3\n3 2\n"},
	{"comments-blanks", "%%MatrixMarket matrix coordinate pattern symmetric\n% c\n\n3 3 2\n\n2 1\n% mid\n3 2\n\n"},
	{"crlf", "%%MatrixMarket matrix coordinate pattern symmetric\r\n3 3 1\r\n2 1\r\n"},
	{"diagonal-dropped", "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 2\n1 1\n2 1\n"},
	{"not-mm", "hello\n1 1 0\n"},
	{"not-coordinate", "%%MatrixMarket matrix array real general\n"},
	{"bad-size", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3\n"},
	{"bad-size-int", "%%MatrixMarket matrix coordinate pattern symmetric\nx 3 1\n"},
	{"not-square", "%%MatrixMarket matrix coordinate pattern general\n3 2 1\n2 1\n"},
	{"oor", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n4 1\n"},
	{"above-diagonal", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\n1 2\n"},
	{"duplicate", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n2 1\n"},
	{"truncated", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 3\n2 1\n"},
	{"short-entry", "%%MatrixMarket matrix coordinate real symmetric\n3 3 1\n2 1\n"},
	{"empty", ""},
	{"bad-entry-int", "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 1\nx 1\n"},
}

func TestParallelMatrixMarketMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		for _, tc := range mmCases {
			t.Run(tc.name, func(t *testing.T) {
				parseBoth(t, []byte(tc.in), true)
			})
		}
	}
}

// A suite-scale round trip through both parsers, worker-swept: the
// parallel reader must reproduce the serial graph bit for bit even
// when chunk boundaries land mid-file.
func TestParallelParseSuiteGraph(t *testing.T) {
	g := gen.Grid2D(60, 41).G
	var metis, mm bytes.Buffer
	if err := graph.WriteMETIS(&metis, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.WriteMatrixMarket(&mm, g); err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		pg, err := parseBoth(t, metis.Bytes(), false)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		assertSameParsedGraph(t, g, pg, nil)
		if _, err := parseBoth(t, mm.Bytes(), true); err != nil {
			t.Fatalf("workers=%d mm: %v", w, err)
		}
	}
}

// FuzzReadMETISParallel is the adversarial parser fuzz target: any
// input must yield an identical Graph or an identical error from the
// serial and parallel readers.
func FuzzReadMETISParallel(f *testing.F) {
	for _, tc := range metisCases {
		f.Add([]byte(tc.in))
	}
	// Chunk-boundary provocations: comments and weights straddling
	// power-of-two offsets.
	f.Add([]byte("4 3 1\n" + strings.Repeat("% pad\n", 40) + "2 9\n1 9 3 8\n2 8 4 7\n3 7\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		sg, serr := graph.ReadMETISSerial(bytes.NewReader(data))
		pg, perr := graph.ReadMETIS(bytes.NewReader(data))
		if (serr == nil) != (perr == nil) {
			t.Fatalf("error mismatch: serial=%v parallel=%v", serr, perr)
		}
		if serr != nil {
			if serr.Error() != perr.Error() {
				t.Fatalf("error text mismatch:\nserial:   %v\nparallel: %v", serr, perr)
			}
			return
		}
		assertSameParsedGraph(t, sg, pg, data)
	})
}

// FuzzReadMatrixMarketParallel mirrors FuzzReadMETISParallel for the
// MatrixMarket reader.
func FuzzReadMatrixMarketParallel(f *testing.F) {
	for _, tc := range mmCases {
		f.Add([]byte(tc.in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		sg, serr := graph.ReadMatrixMarketSerial(bytes.NewReader(data))
		pg, perr := graph.ReadMatrixMarket(bytes.NewReader(data))
		if (serr == nil) != (perr == nil) {
			t.Fatalf("error mismatch: serial=%v parallel=%v", serr, perr)
		}
		if serr != nil {
			if serr.Error() != perr.Error() {
				t.Fatalf("error text mismatch:\nserial:   %v\nparallel: %v", serr, perr)
			}
			return
		}
		assertSameParsedGraph(t, sg, pg, data)
	})
}
