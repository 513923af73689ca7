package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WriteMETIS writes g in the METIS graph-file format: a header line
// "n m [fmt]" followed by one line per vertex listing its 1-based
// neighbours (and arc weights when the graph is edge-weighted). Each
// line is assembled with strconv.AppendInt into a reused scratch
// buffer — no per-value fmt round trips — so writing keeps pace with
// the parallel readers. Compressed graphs are written by decoding
// through a Cursor.
func WriteMETIS(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := g.NumVertices()
	hasVW := g.VWgt != nil
	hasEW := g.EWgt != nil || (g.Packed != nil && g.Packed.weighted)
	format := ""
	switch {
	case hasVW && hasEW:
		format = " 11"
	case hasVW:
		format = " 10"
	case hasEW:
		format = " 1"
	}
	line := make([]byte, 0, 1<<10)
	line = strconv.AppendInt(line, int64(n), 10)
	line = append(line, ' ')
	line = strconv.AppendInt(line, int64(g.NumEdges()), 10)
	line = append(line, format...)
	line = append(line, '\n')
	if _, err := bw.Write(line); err != nil {
		return err
	}
	cur := GetCursor(g)
	defer cur.Release()
	for v := int32(0); v < int32(n); v++ {
		line = line[:0]
		first := true
		if hasVW {
			line = strconv.AppendInt(line, int64(g.VWgt[v]), 10)
			first = false
		}
		nbrs, wgts := cur.Arcs(v)
		for i, nb := range nbrs {
			if !first {
				line = append(line, ' ')
			}
			first = false
			line = strconv.AppendInt(line, int64(nb)+1, 10)
			if hasEW {
				line = append(line, ' ')
				line = strconv.AppendInt(line, int64(wgts[i]), 10)
			}
		}
		line = append(line, '\n')
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMETIS parses a graph in METIS format. Comment lines starting
// with '%' are skipped. Supported fmt codes: "", "1" (edge weights),
// "10" (vertex weights), "11" (both). Multi-constraint vertex weights
// are not supported. Parsing runs on the hostpar-chunked byte-slice
// path (see io_par.go).
func ReadMETIS(r io.Reader) (*Graph, error) {
	data, err := slurp(r)
	if err != nil {
		return nil, fmt.Errorf("graph: METIS header: %w", err)
	}
	return readMETISBytes(data)
}

// sortedByKey returns the permutation of indices ordering keys
// ascending, ties broken by position — so equal keys appear in file
// order within a run.
func sortedByKey(keys []int64) []int32 {
	perm := make([]int32, len(keys))
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.Slice(perm, func(a, b int) bool {
		if keys[perm[a]] != keys[perm[b]] {
			return keys[perm[a]] < keys[perm[b]]
		}
		return perm[a] < perm[b]
	})
	return perm
}

// firstDuplicate scans a key-sorted permutation for equal adjacent keys
// and returns the smallest position that is not the first occurrence of
// its key (the first duplicate in file order), or -1.
func firstDuplicate(keys []int64, perm []int32) int {
	dup := -1
	for i := 1; i < len(perm); i++ {
		if keys[perm[i]] == keys[perm[i-1]] {
			if p := int(perm[i]); dup < 0 || p < dup {
				dup = p
			}
		}
	}
	return dup
}

// WriteMatrixMarket writes the adjacency structure of g as a symmetric
// pattern matrix in MatrixMarket coordinate format, the format of the
// UFL sparse matrix collection the paper draws its test graphs from.
// Entry lines are assembled with strconv.AppendInt into a reused
// scratch buffer.
func WriteMatrixMarket(w io.Writer, g *Graph) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	n := g.NumVertices()
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate pattern symmetric\n%d %d %d\n", n, n, g.NumEdges()); err != nil {
		return err
	}
	cur := GetCursor(g)
	defer cur.Release()
	line := make([]byte, 0, 64)
	for u := int32(0); u < int32(n); u++ {
		nbrs, _ := cur.Arcs(u)
		for _, v := range nbrs {
			if v < u {
				// Lower-triangular convention: row > column.
				line = strconv.AppendInt(line[:0], int64(u)+1, 10)
				line = append(line, ' ')
				line = strconv.AppendInt(line, int64(v)+1, 10)
				line = append(line, '\n')
				if _, err := bw.Write(line); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// ReadMatrixMarket reads a symmetric sparse matrix in MatrixMarket
// coordinate format and returns its adjacency graph (diagonal entries
// dropped, values ignored). General (non-symmetric) matrices are
// symmetrised. Parsing runs on the hostpar-chunked byte-slice path
// (see io_par.go).
func ReadMatrixMarket(r io.Reader) (*Graph, error) {
	data, err := slurp(r)
	if err != nil {
		return nil, err
	}
	return readMatrixMarketBytes(data)
}
