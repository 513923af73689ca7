package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The streaming Scanner-based readers the byte-slice parsers replaced.
// They stay as oracles: every input must yield an identical Graph or an
// identical error from both (io_par_test.go and the parser fuzz
// targets).

// ReadMETISSerial and ReadMatrixMarketSerial expose the oracles to the
// external test package.
var (
	ReadMETISSerial        = readMETISSerial
	ReadMatrixMarketSerial = readMatrixMarketSerial
)

// readMETISSerial is the original streaming reader, kept verbatim as
// the oracle the byte-slice parser is differentially tested against.
func readMETISSerial(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	line, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: METIS header: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil, fmt.Errorf("graph: METIS header %q: want at least n and m", line)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("graph: METIS header n: %w", err)
	}
	m, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, fmt.Errorf("graph: METIS header m: %w", err)
	}
	hasVW, hasEW := false, false
	if len(fields) >= 3 {
		switch fields[2] {
		case "0", "00", "000":
		case "1", "01", "001":
			hasEW = true
		case "10", "010":
			hasVW = true
		case "11", "011":
			hasVW, hasEW = true, true
		default:
			return nil, fmt.Errorf("graph: METIS fmt code %q unsupported", fields[2])
		}
	}
	b := NewBuilder(n)
	// Each undirected edge must appear twice in a METIS file, once from
	// each endpoint. Record every directed entry (in file order, for
	// deterministic error reporting) so the adjacency can be checked for
	// self-loops, duplicates, and asymmetry — the structural defects that
	// otherwise surface much later as partitioner invariant violations.
	// Validation is sort-based (see checkAdjacency): one permutation sort
	// over packed (from, to) keys replaces a hash set holding every
	// directed entry.
	type dirEdge struct{ from, to, w int32 }
	entries := make([]dirEdge, 0, preallocHint(2*m))
	for v := 0; v < n; v++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: METIS vertex %d: %w", v+1, err)
		}
		toks := strings.Fields(line)
		i := 0
		if hasVW {
			if len(toks) == 0 {
				return nil, fmt.Errorf("graph: METIS vertex %d: missing weight", v+1)
			}
			w, err := strconv.Atoi(toks[0])
			if err != nil {
				return nil, fmt.Errorf("graph: METIS vertex %d weight: %w", v+1, err)
			}
			b.SetVertexWeight(int32(v), int32(w))
			i = 1
		}
		for i < len(toks) {
			u, err := strconv.Atoi(toks[i])
			if err != nil {
				return nil, fmt.Errorf("graph: METIS vertex %d neighbour: %w", v+1, err)
			}
			i++
			w := 1
			if hasEW {
				if i >= len(toks) {
					return nil, fmt.Errorf("graph: METIS vertex %d: missing edge weight", v+1)
				}
				w, err = strconv.Atoi(toks[i])
				if err != nil {
					return nil, fmt.Errorf("graph: METIS vertex %d edge weight: %w", v+1, err)
				}
				i++
			}
			if u < 1 || u > n {
				return nil, fmt.Errorf("graph: METIS vertex %d: neighbour %d out of range [1,%d]", v+1, u, n)
			}
			if u-1 == v {
				return nil, fmt.Errorf("graph: METIS vertex %d: self-loop", v+1)
			}
			entries = append(entries, dirEdge{int32(v), int32(u - 1), int32(w)})
			// Each undirected edge appears twice in the file; add it
			// once, from its lower endpoint.
			if int32(u-1) > int32(v) {
				b.AddWeightedEdge(int32(v), int32(u-1), int32(w))
			}
		}
	}
	// Duplicate check: sort a permutation by (packed key, file position)
	// and look for equal adjacent keys. Reporting the smallest
	// second-occurrence position reproduces the first duplicate a file-
	// order scan would hit.
	keys := make([]int64, len(entries))
	for i, e := range entries {
		keys[i] = int64(e.from)<<32 | int64(e.to)
	}
	perm := sortedByKey(keys)
	if dup := firstDuplicate(keys, perm); dup >= 0 {
		e := entries[dup]
		return nil, fmt.Errorf("graph: METIS vertex %d: duplicate neighbour %d", e.from+1, e.to+1)
	}
	// Symmetry: every directed entry needs its mirror (binary search over
	// the now-unique sorted keys), with the same weight when the file
	// carries edge weights. Checking in file order makes the reported
	// offender deterministic.
	for _, e := range entries {
		k := findKey(keys, perm, int64(e.to)<<32|int64(e.from))
		if k < 0 {
			return nil, fmt.Errorf("graph: METIS adjacency asymmetric: vertex %d lists %d but %d does not list %d",
				e.from+1, e.to+1, e.to+1, e.from+1)
		}
		if hasEW && entries[k].w != e.w {
			return nil, fmt.Errorf("graph: METIS edge weight asymmetric: %d-%d has weights %d and %d",
				e.from+1, e.to+1, e.w, entries[k].w)
		}
	}
	g := b.Build()
	if g.NumEdges() != m {
		return nil, fmt.Errorf("graph: METIS edge count %d does not match header %d", g.NumEdges(), m)
	}
	return g, nil
}

// findKey binary-searches a duplicate-free key-sorted permutation and
// returns the position holding key, or -1.
func findKey(keys []int64, perm []int32, key int64) int {
	lo, hi := 0, len(perm)
	for lo < hi {
		mid := (lo + hi) / 2
		if keys[perm[mid]] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(perm) && keys[perm[lo]] == key {
		return int(perm[lo])
	}
	return -1
}

func nextDataLine(sc *bufio.Scanner) (string, error) {
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		return line, nil
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", io.ErrUnexpectedEOF
}

// readMatrixMarketSerial is the original streaming reader, kept
// verbatim as the oracle the byte-slice parser is differentially tested
// against.
func readMatrixMarketSerial(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	if !sc.Scan() {
		return nil, io.ErrUnexpectedEOF
	}
	header := strings.ToLower(sc.Text())
	if !strings.HasPrefix(header, "%%matrixmarket") {
		return nil, fmt.Errorf("graph: not a MatrixMarket file: %q", header)
	}
	if !strings.Contains(header, "coordinate") {
		return nil, fmt.Errorf("graph: only coordinate MatrixMarket supported")
	}
	hasValues := !strings.Contains(header, "pattern")
	line, err := nextDataLine(sc)
	if err != nil {
		return nil, fmt.Errorf("graph: MatrixMarket size line: %w", err)
	}
	fields := strings.Fields(line)
	if len(fields) != 3 {
		return nil, fmt.Errorf("graph: MatrixMarket size line %q", line)
	}
	rows, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, err
	}
	cols, err := strconv.Atoi(fields[1])
	if err != nil {
		return nil, err
	}
	nnz, err := strconv.Atoi(fields[2])
	if err != nil {
		return nil, err
	}
	if rows != cols {
		return nil, fmt.Errorf("graph: MatrixMarket matrix is %dx%d, want square", rows, cols)
	}
	symmetric := strings.Contains(header, "symmetric")
	b := NewBuilder(rows)
	cells := make([]int64, 0, preallocHint(nnz)) // packed (i, j), in file order
	for k := 0; k < nnz; k++ {
		line, err := nextDataLine(sc)
		if err != nil {
			return nil, fmt.Errorf("graph: MatrixMarket entry %d: %w", k+1, err)
		}
		toks := strings.Fields(line)
		want := 2
		if hasValues {
			want = 3
		}
		if len(toks) < want {
			return nil, fmt.Errorf("graph: MatrixMarket entry %q", line)
		}
		i, err := strconv.Atoi(toks[0])
		if err != nil {
			return nil, err
		}
		j, err := strconv.Atoi(toks[1])
		if err != nil {
			return nil, err
		}
		if i < 1 || i > rows || j < 1 || j > rows {
			return nil, fmt.Errorf("graph: MatrixMarket entry (%d,%d) out of range (matrix is %dx%d)", i, j, rows, rows)
		}
		if symmetric && i < j {
			return nil, fmt.Errorf("graph: MatrixMarket entry (%d,%d) above the diagonal in a symmetric matrix", i, j)
		}
		cells = append(cells, int64(i)<<32|int64(j))
		if i != j {
			b.AddEdge(int32(i-1), int32(j-1))
		}
	}
	// Duplicate check, sort-based like ReadMETIS: the smallest second-
	// occurrence position is the first duplicate in file order.
	if dup := firstDuplicate(cells, sortedByKey(cells)); dup >= 0 {
		c := cells[dup]
		return nil, fmt.Errorf("graph: MatrixMarket duplicate entry (%d,%d)", c>>32, int32(c))
	}
	// The builder merges the duplicates a general matrix produces; the
	// accumulated weights are irrelevant for pattern use, so rebuild as
	// unweighted.
	g := b.Build()
	g.EWgt = nil
	return g, nil
}
