package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"repro/internal/hostpar"
)

// The parallel ingest path: ReadMETIS/ReadMatrixMarket slurp the input
// and parse it from a byte slice — newline indexing, line
// classification, and per-line tokenise/parse all chunked over the
// hostpar substrate at line boundaries, with a deterministic merge of
// the per-chunk arc buffers in file order. The per-token fast path
// replaces a Scanner + strings.Fields + strconv.Atoi stack (the old
// 34 MB/s wall); any irregular token falls back to strconv so every
// error string matches the streaming readers byte for byte, and the
// assembled entry list is handed to the Builder, so the resulting
// Graph is bit-identical. The streaming readers are kept verbatim in
// io_serial_test.go as the differential oracle.

const (
	// parseGrainBytes is the minimum bytes per newline-index chunk.
	parseGrainBytes = 1 << 16
	// parseGrainLines is the minimum lines per parse chunk.
	parseGrainLines = 256
)

// hasHighBitAll reports whether data contains any non-ASCII byte, one
// word at a time. A clean verdict (the overwhelmingly common case)
// lets the parsers skip all per-line unicode handling.
func hasHighBitAll(data []byte) bool {
	i := 0
	for ; i+8 <= len(data); i += 8 {
		if binary.LittleEndian.Uint64(data[i:])&0x8080808080808080 != 0 {
			return true
		}
	}
	for ; i < len(data); i++ {
		if data[i] >= 0x80 {
			return true
		}
	}
	return false
}

// dataLineSpans returns the [start,end) spans of the data lines of
// data[from:] — the lines nextDataLine would yield: trimmed form
// non-empty and not starting with '%'. Spans exclude the terminating
// '\n' but keep any '\r' (the tokenisers treat it as a separator).
// Line discovery and classification run fused in one chunked pass;
// each chunk owns the lines that start inside it, so the merge
// preserves file order at any worker count. clean asserts data has no
// non-ASCII bytes, enabling the table-driven classifier.
func dataLineSpans(data []byte, from int, clean bool) [][2]int {
	n := len(data)
	if from >= n {
		return nil
	}
	span := n - from
	nc := hostpar.NumChunks(span, parseGrainBytes)
	perChunk := make([][][2]int, nc)
	hostpar.ForN(span, nc, func(c, clo, chi int) {
		lo, hi := from+clo, from+chi
		s := lo
		if lo > from {
			// Own only lines starting in [lo, hi): the first such line
			// begins right after a newline at index >= lo-1.
			k := bytes.IndexByte(data[lo-1:hi-1], '\n')
			if k < 0 {
				return
			}
			s = lo + k
		}
		var spans [][2]int
		for s < hi {
			e := n
			if k := bytes.IndexByte(data[s:], '\n'); k >= 0 {
				e = s + k
			}
			line := data[s:e]
			ok := false
			if clean {
				for i := 0; i < len(line); i++ {
					if !asciiSpace[line[i]] {
						ok = line[i] != '%'
						break
					}
				}
			} else {
				ok = isDataLine(line)
			}
			if ok {
				spans = append(spans, [2]int{s, e})
			}
			s = e + 1
		}
		perChunk[c] = spans
	})
	out := perChunk[0]
	for _, p := range perChunk[1:] {
		out = append(out, p...)
	}
	return out
}

// asciiSpace marks the ASCII bytes strings.Fields treats as separators.
var asciiSpace = [256]bool{' ': true, '\t': true, '\n': true, '\v': true, '\f': true, '\r': true}

// hasHighBit reports whether line contains a non-ASCII byte, in which
// case tokenisation must defer to the unicode-aware strings.Fields.
func hasHighBit(line []byte) bool {
	for _, c := range line {
		if c >= 0x80 {
			return true
		}
	}
	return false
}

// splitTokens splits a raw line into whitespace-separated tokens,
// reusing dst. ASCII lines use the table-driven fast path; lines with
// non-ASCII bytes defer to strings.Fields so unicode whitespace splits
// exactly as it does in the serial readers.
func splitTokens(line []byte, dst [][]byte) [][]byte {
	dst = dst[:0]
	if hasHighBit(line) {
		for _, f := range strings.Fields(string(line)) {
			dst = append(dst, []byte(f))
		}
		return dst
	}
	for i := 0; i < len(line); {
		for i < len(line) && asciiSpace[line[i]] {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && !asciiSpace[line[j]] {
			j++
		}
		dst = append(dst, line[i:j])
		i = j
	}
	return dst
}

// isDataLine mirrors nextDataLine's filter: a line whose trimmed form
// is non-empty and does not start with '%'. Equivalent to "has a first
// token whose first byte is not '%'" under either tokeniser.
func isDataLine(line []byte) bool {
	if hasHighBit(line) {
		s := strings.TrimSpace(string(line))
		return s != "" && !strings.HasPrefix(s, "%")
	}
	for i := 0; i < len(line); i++ {
		if !asciiSpace[line[i]] {
			return line[i] != '%'
		}
	}
	return false
}

// parseIntTok parses a base-10 integer with a digits-only fast path.
// Anything irregular — empty, signed, stray bytes, or long enough to
// overflow — falls back to strconv.Atoi so values and error strings
// match the serial readers exactly.
func parseIntTok(tok []byte) (int, error) {
	if len(tok) == 0 || len(tok) > 18 {
		return strconv.Atoi(string(tok))
	}
	v := 0
	for _, c := range tok {
		if c < '0' || c > '9' {
			return strconv.Atoi(string(tok))
		}
		v = v*10 + int(c-'0')
	}
	return v, nil
}

// trimmedString returns the trimmed line as a string, for %q error
// messages only (never on the hot path).
func trimmedString(line []byte) string { return strings.TrimSpace(string(line)) }

// slurp reads all of r. Seekable inputs (files, bytes.Reader) are read
// with one exact-size allocation instead of io.ReadAll's doubling
// growth.
func slurp(r io.Reader) ([]byte, error) {
	if s, ok := r.(io.Seeker); ok {
		cur, err1 := s.Seek(0, io.SeekCurrent)
		end, err2 := s.Seek(0, io.SeekEnd)
		if err1 == nil && err2 == nil && end >= cur {
			if _, err := s.Seek(cur, io.SeekStart); err == nil {
				buf := make([]byte, end-cur)
				if _, err := io.ReadFull(r, buf); err != nil {
					return nil, err
				}
				return buf, nil
			}
		}
	}
	return io.ReadAll(r)
}

// normalizeLine rewrites a line containing non-ASCII bytes as its
// strings.Fields tokens joined by single spaces, so the fused ASCII
// tokeniser sees exactly the token sequence the serial reader's
// unicode-aware split produced. Only ever called for such lines.
func normalizeLine(line []byte) []byte {
	return []byte(strings.Join(strings.Fields(string(line)), " "))
}

// preallocHint caps an untrusted header-derived element count so a
// bogus header cannot force a gigantic up-front allocation; slices
// still grow to the real size on demand.
func preallocHint(n int) int {
	const max = 1 << 20
	if n < 0 {
		return 0
	}
	if n > max {
		return max
	}
	return n
}

// metisEntry is one directed adjacency entry of a METIS file, in file
// order (matches the serial reader's dirEdge).
type metisEntry struct{ from, to, w int32 }

// readMETISBytes is the parallel METIS parser over a complete input.
func readMETISBytes(data []byte) (*Graph, error) {
	clean := !hasHighBitAll(data)
	spans := dataLineSpans(data, 0, clean)
	if len(spans) == 0 {
		return nil, fmt.Errorf("graph: METIS header: %w", io.ErrUnexpectedEOF)
	}
	hsp := spans[0]
	headerRaw := data[hsp[0]:hsp[1]]
	fields := splitTokens(headerRaw, nil)
	if len(fields) < 2 {
		return nil, fmt.Errorf("graph: METIS header %q: want at least n and m", trimmedString(headerRaw))
	}
	n, err := parseIntTok(fields[0])
	if err != nil {
		return nil, fmt.Errorf("graph: METIS header n: %w", err)
	}
	m, err := parseIntTok(fields[1])
	if err != nil {
		return nil, fmt.Errorf("graph: METIS header m: %w", err)
	}
	hasVW, hasEW := false, false
	if len(fields) >= 3 {
		switch string(fields[2]) {
		case "0", "00", "000":
		case "1", "01", "001":
			hasEW = true
		case "10", "010":
			hasVW = true
		case "11", "011":
			hasVW, hasEW = true, true
		default:
			return nil, fmt.Errorf("graph: METIS fmt code %q unsupported", string(fields[2]))
		}
	}
	// Parse the vertex lines that exist; truncation is only reported
	// after they all parse cleanly, because the serial reader hits a
	// vertex line's parse error before it can discover the file ends
	// early.
	avail := len(spans) - 1
	if avail > n {
		avail = n
	}
	perV := 0
	if avail > 0 {
		perV = 2*m/avail + 1
	}
	// Per-vertex tokenise/parse, chunked at line boundaries. Each chunk
	// parses into its own packed arc buffer; vertex weights land
	// directly in disjoint vwgt ranges. Chunks cover ascending vertex
	// ranges, so the first non-nil chunk error is the error the serial
	// file-order scan would have reported.
	var vwgt []int32
	if hasVW && n > 0 {
		// n == 0 stays nil: the serial reader only materialises weights
		// when a vertex line delivers one.
		vwgt = make([]int32, n)
	}
	nc := hostpar.NumChunks(avail, parseGrainLines)
	chunkEnts := make([][]metisEntry, nc)
	chunkErrs := make([]error, nc)
	hostpar.ForN(avail, nc, func(c, lo, hi int) {
		ents := make([]metisEntry, 0, preallocHint(perV*(hi-lo)+4))
		for v := lo; v < hi; v++ {
			sp := spans[v+1]
			line := data[sp[0]:sp[1]]
			if !clean && hasHighBit(line) {
				line = normalizeLine(line)
			}
			// Fused tokenise + parse: one pass over the line, with the
			// serial reader's per-token error precedence (neighbour
			// parse, then edge-weight presence/parse, then range, then
			// self-loop).
			tokIdx := 0
			u := 0
			pend := false // neighbour u parsed, its edge weight expected
			for i := 0; i < len(line); {
				for i < len(line) && asciiSpace[line[i]] {
					i++
				}
				if i >= len(line) {
					break
				}
				// Greedy digit run; anything else makes the token
				// irregular and falls back to strconv for exact values
				// and error strings.
				j := i
				val := 0
				for ; j < len(line); j++ {
					d := line[j] - '0'
					if d > 9 {
						break
					}
					val = val*10 + int(d)
				}
				irregular := j == i || j-i > 18
				if j < len(line) && !asciiSpace[line[j]] {
					irregular = true
					for j < len(line) && !asciiSpace[line[j]] {
						j++
					}
				}
				if irregular {
					var err error
					val, err = strconv.Atoi(string(line[i:j]))
					if err != nil {
						switch {
						case hasVW && tokIdx == 0:
							chunkErrs[c] = fmt.Errorf("graph: METIS vertex %d weight: %w", v+1, err)
						case pend:
							chunkErrs[c] = fmt.Errorf("graph: METIS vertex %d edge weight: %w", v+1, err)
						default:
							chunkErrs[c] = fmt.Errorf("graph: METIS vertex %d neighbour: %w", v+1, err)
						}
						return
					}
				}
				i = j
				switch {
				case hasVW && tokIdx == 0:
					vwgt[v] = int32(val)
				case !pend && hasEW:
					u = val
					pend = true
				default:
					w := 1
					if pend {
						w = val
						pend = false
					} else {
						u = val
					}
					if u < 1 || u > n {
						chunkErrs[c] = fmt.Errorf("graph: METIS vertex %d: neighbour %d out of range [1,%d]", v+1, u, n)
						return
					}
					if u-1 == v {
						chunkErrs[c] = fmt.Errorf("graph: METIS vertex %d: self-loop", v+1)
						return
					}
					ents = append(ents, metisEntry{int32(v), int32(u - 1), int32(w)})
				}
				tokIdx++
			}
			if hasVW && tokIdx == 0 {
				chunkErrs[c] = fmt.Errorf("graph: METIS vertex %d: missing weight", v+1)
				return
			}
			if pend {
				chunkErrs[c] = fmt.Errorf("graph: METIS vertex %d: missing edge weight", v+1)
				return
			}
		}
		chunkEnts[c] = ents
	})
	for _, err := range chunkErrs {
		if err != nil {
			return nil, err
		}
	}
	if avail < n {
		return nil, fmt.Errorf("graph: METIS vertex %d: %w", avail+1, io.ErrUnexpectedEOF)
	}
	var entries []metisEntry
	if nc == 1 {
		entries = chunkEnts[0]
	} else {
		total := 0
		for _, e := range chunkEnts {
			total += len(e)
		}
		entries = make([]metisEntry, 0, total)
		for _, e := range chunkEnts {
			entries = append(entries, e...)
		}
	}
	total := len(entries)
	// Validation exploits that METIS entries arrive grouped by ascending
	// `from`: instead of the serial reader's global permutation sort, a
	// per-row sort of packed (to, position) keys gives duplicate
	// detection (adjacent equal targets), symmetry (binary search in
	// the mirror's row, a handful of probes instead of log M over the
	// whole file), and — once validated — the finished CSR rows
	// themselves. The reported errors are identical to the serial
	// reader's: duplicates by smallest second-occurrence file position,
	// asymmetry by file-order scan.
	xadj := make([]int32, n+1)
	for _, e := range entries {
		xadj[e.from+1]++
	}
	for v := 0; v < n; v++ {
		xadj[v+1] += xadj[v]
	}
	rowKeys := make([]int64, total)
	for i, e := range entries {
		rowKeys[i] = int64(e.to)<<32 | int64(i)
	}
	nvc := hostpar.NumChunks(n, parseGrainLines)
	dupPos := make([]int, nvc)
	anyNot1 := make([]bool, nvc)
	hostpar.ForN(n, nvc, func(c, lo, hi int) {
		dup := -1
		not1 := false
		for v := lo; v < hi; v++ {
			row := rowKeys[xadj[v]:xadj[v+1]]
			if len(row) < 16 {
				// Insertion sort skips the generic-sort call overhead on
				// the short rows that dominate sparse graphs.
				for i := 1; i < len(row); i++ {
					for k := i; k > 0 && row[k] < row[k-1]; k-- {
						row[k], row[k-1] = row[k-1], row[k]
					}
				}
			} else {
				slices.Sort(row)
			}
			for i := 1; i < len(row); i++ {
				if row[i]>>32 == row[i-1]>>32 {
					if p := int(int32(row[i])); dup < 0 || p < dup {
						dup = p
					}
				}
			}
			if hasEW && !not1 {
				for _, k := range row {
					if entries[int32(k)].w != 1 {
						not1 = true
						break
					}
				}
			}
		}
		dupPos[c] = dup
		anyNot1[c] = not1
	})
	dup, weighted := -1, false
	for c := 0; c < nvc; c++ {
		if p := dupPos[c]; p >= 0 && (dup < 0 || p < dup) {
			dup = p
		}
		weighted = weighted || anyNot1[c]
	}
	if dup >= 0 {
		e := entries[dup]
		return nil, fmt.Errorf("graph: METIS vertex %d: duplicate neighbour %d", e.from+1, e.to+1)
	}
	// Symmetry in file order: every entry must find its mirror in the
	// target's (duplicate-free) sorted row, with an equal weight when
	// the file carries them. Chunks cover ascending entry ranges, so
	// the first failing chunk holds the first failing entry.
	mirrorOf := func(e metisEntry) int {
		row := rowKeys[xadj[e.to]:xadj[e.to+1]]
		want := int64(e.from) << 32
		lo, hi := 0, len(row)
		for lo < hi {
			mid := (lo + hi) / 2
			if row[mid] < want {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(row) && row[lo]>>32 == int64(e.from) {
			return int(int32(row[lo]))
		}
		return -1
	}
	nec := hostpar.NumChunks(total, 4*parseGrainLines)
	asymPos := make([]int, nec)
	hostpar.ForN(total, nec, func(c, lo, hi int) {
		asymPos[c] = -1
		for p := lo; p < hi; p++ {
			e := entries[p]
			k := mirrorOf(e)
			if k < 0 || (hasEW && entries[k].w != e.w) {
				asymPos[c] = p
				return
			}
		}
	})
	for _, p := range asymPos {
		if p < 0 {
			continue
		}
		e := entries[p]
		k := mirrorOf(e)
		if k < 0 {
			return nil, fmt.Errorf("graph: METIS adjacency asymmetric: vertex %d lists %d but %d does not list %d",
				e.from+1, e.to+1, e.to+1, e.from+1)
		}
		return nil, fmt.Errorf("graph: METIS edge weight asymmetric: %d-%d has weights %d and %d",
			e.from+1, e.to+1, e.w, entries[k].w)
	}
	// Assembly straight from the validated sorted rows. This reproduces
	// the Builder output bit for bit: rows ascending and duplicate-free,
	// EWgt present iff some weight differs from 1 (weights are
	// symmetric, so scanning every directed entry is equivalent to the
	// Builder's scan of the lower-endpoint adds), VWgt present iff the
	// file carries vertex weights.
	adj := make([]int32, total)
	var ewgt []int32
	if weighted {
		ewgt = make([]int32, total)
	}
	hostpar.ForN(n, nvc, func(_, lo, hi int) {
		for v := lo; v < hi; v++ {
			base := int(xadj[v])
			row := rowKeys[base:int(xadj[v+1])]
			for i, k := range row {
				adj[base+i] = int32(k >> 32)
				if weighted {
					ewgt[base+i] = entries[int32(k)].w
				}
			}
		}
	})
	g := &Graph{XAdj: xadj, Adjncy: adj, VWgt: vwgt, EWgt: ewgt}
	if g.NumEdges() != m {
		return nil, fmt.Errorf("graph: METIS edge count %d does not match header %d", g.NumEdges(), m)
	}
	return g, nil
}

// readMatrixMarketBytes is the parallel MatrixMarket parser over a
// complete input.
func readMatrixMarketBytes(data []byte) (*Graph, error) {
	if len(data) == 0 {
		return nil, io.ErrUnexpectedEOF
	}
	// The banner is the raw first line (consumed even when blank),
	// trimmed of its '\r' like the serial scanner would.
	hEnd, from := len(data), len(data)
	if k := bytes.IndexByte(data, '\n'); k >= 0 {
		hEnd, from = k, k+1
	}
	if hEnd > 0 && data[hEnd-1] == '\r' {
		hEnd--
	}
	header := strings.ToLower(string(data[:hEnd]))
	if !strings.HasPrefix(header, "%%matrixmarket") {
		return nil, fmt.Errorf("graph: not a MatrixMarket file: %q", header)
	}
	if !strings.Contains(header, "coordinate") {
		return nil, fmt.Errorf("graph: only coordinate MatrixMarket supported")
	}
	hasValues := !strings.Contains(header, "pattern")
	clean := !hasHighBitAll(data)
	spans := dataLineSpans(data, from, clean)
	if len(spans) == 0 {
		return nil, fmt.Errorf("graph: MatrixMarket size line: %w", io.ErrUnexpectedEOF)
	}
	ssp := spans[0]
	sizeRaw := data[ssp[0]:ssp[1]]
	fields := splitTokens(sizeRaw, nil)
	if len(fields) != 3 {
		return nil, fmt.Errorf("graph: MatrixMarket size line %q", trimmedString(sizeRaw))
	}
	rows, err := parseIntTok(fields[0])
	if err != nil {
		return nil, err
	}
	cols, err := parseIntTok(fields[1])
	if err != nil {
		return nil, err
	}
	nnz, err := parseIntTok(fields[2])
	if err != nil {
		return nil, err
	}
	if rows != cols {
		return nil, fmt.Errorf("graph: MatrixMarket matrix is %dx%d, want square", rows, cols)
	}
	symmetric := strings.Contains(header, "symmetric")
	// Parse the entry lines that exist; truncation is only reported
	// after they all parse cleanly (serial error precedence).
	avail := len(spans) - 1
	if avail > nnz {
		avail = nnz
	}
	// Per-entry parse, chunked at line boundaries into per-chunk packed
	// (i,j) cell buffers, merged in file order.
	nc := hostpar.NumChunks(avail, parseGrainLines)
	chunkCells := make([][]int64, nc)
	chunkErrs := make([]error, nc)
	want := 2
	if hasValues {
		want = 3
	}
	hostpar.ForN(avail, nc, func(c, lo, hi int) {
		cells := make([]int64, 0, hi-lo)
		for k := lo; k < hi; k++ {
			sp := spans[k+1]
			line := data[sp[0]:sp[1]]
			if !clean && hasHighBit(line) {
				line = normalizeLine(line)
			}
			// Fused tokenise + parse with the serial error precedence:
			// token count first, then the i and j parses in order.
			var i, j, cnt int
			var iErr, jErr error
			for p := 0; p < len(line); {
				for p < len(line) && asciiSpace[line[p]] {
					p++
				}
				if p >= len(line) {
					break
				}
				q := p
				val := 0
				for ; q < len(line); q++ {
					d := line[q] - '0'
					if d > 9 {
						break
					}
					val = val*10 + int(d)
				}
				irregular := q == p || q-p > 18
				if q < len(line) && !asciiSpace[line[q]] {
					irregular = true
					for q < len(line) && !asciiSpace[line[q]] {
						q++
					}
				}
				if cnt < 2 && irregular {
					var err error
					val, err = strconv.Atoi(string(line[p:q]))
					if err != nil {
						if cnt == 0 {
							iErr = err
						} else {
							jErr = err
						}
					}
				}
				switch cnt {
				case 0:
					i = val
				case 1:
					j = val
				}
				cnt++
				p = q
			}
			if cnt < want {
				chunkErrs[c] = fmt.Errorf("graph: MatrixMarket entry %q", trimmedString(data[sp[0]:sp[1]]))
				return
			}
			if iErr != nil {
				chunkErrs[c] = iErr
				return
			}
			if jErr != nil {
				chunkErrs[c] = jErr
				return
			}
			if i < 1 || i > rows || j < 1 || j > rows {
				chunkErrs[c] = fmt.Errorf("graph: MatrixMarket entry (%d,%d) out of range (matrix is %dx%d)", i, j, rows, rows)
				return
			}
			if symmetric && i < j {
				chunkErrs[c] = fmt.Errorf("graph: MatrixMarket entry (%d,%d) above the diagonal in a symmetric matrix", i, j)
				return
			}
			cells = append(cells, int64(i)<<32|int64(j))
		}
		chunkCells[c] = cells
	})
	for _, err := range chunkErrs {
		if err != nil {
			return nil, err
		}
	}
	if avail < nnz {
		return nil, fmt.Errorf("graph: MatrixMarket entry %d: %w", avail+1, io.ErrUnexpectedEOF)
	}
	var cells []int64
	if nc == 1 {
		cells = chunkCells[0]
	} else {
		total := 0
		for _, cl := range chunkCells {
			total += len(cl)
		}
		cells = make([]int64, 0, total)
		for _, cl := range chunkCells {
			cells = append(cells, cl...)
		}
	}
	// Fast duplicate screen: sort a copy and look for equal neighbours;
	// only an actual duplicate (the error path) pays for the exact
	// file-position attribution of the serial reader's permutation sort.
	sorted := slices.Clone(cells)
	slices.Sort(sorted)
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			dup := firstDuplicate(cells, sortedByKey(cells))
			c := cells[dup]
			return nil, fmt.Errorf("graph: MatrixMarket duplicate entry (%d,%d)", c>>32, int32(c))
		}
	}
	b := NewBuilder(rows)
	for _, c := range cells {
		i, j := int32(c>>32), int32(c)
		if i != j {
			b.AddEdge(i-1, j-1)
		}
	}
	g := b.Build()
	g.EWgt = nil
	return g, nil
}
