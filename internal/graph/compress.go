package graph

import (
	"sync"

	"repro/internal/hostpar"
)

// Compressed adjacency: delta/varint-encoded neighbour lists behind
// fixed-size block offsets, the memory representation that makes
// paper-adjacent graph sizes practical on one host. XAdj and VWgt are
// retained uncompressed — degrees, ownership ranges, and the cost
// model's XAdj arithmetic stay O(1) — while Adjncy and EWgt are
// replaced by two byte streams:
//
//   - inline: short rows (degree < cLongDeg), encoded in vertex order as
//     zigzag-varint deltas: first neighbour relative to the vertex id,
//     then consecutive differences. Weighted graphs interleave a
//     zigzag-varint arc weight after each neighbour.
//   - long: hub rows (degree >= cLongDeg) carry the same encoding in a
//     separate stream; their inline slot holds only the encoded byte
//     length, so a sequential skim of a block steps over hubs in O(1)
//     varints instead of O(degree).
//
// Every cBlock consecutive vertices form a block with recorded start
// offsets into both streams, so random access costs at most a
// cBlock-row skim from the block start. Encoding, decoding, and random
// access never consult scheduling state: the byte streams are a pure
// function of the CSR arrays, which is what keeps compressed and plain
// runs bit-identical (the cuts/clocks bit-identity tests pin it).

const (
	// cBlock is the number of vertices per offset block.
	cBlock = 16
	// cLongDeg routes rows at or above this degree to the long stream.
	cLongDeg = 32
	// compressGrainBlocks is the minimum blocks per parallel chunk.
	compressGrainBlocks = 64
)

// CGraph is the compressed adjacency payload of a Graph. It shares the
// uncompressed XAdj and VWgt arrays with its wrapper and is immutable
// after Compress, so it is safe to hand to every simulated rank.
type CGraph struct {
	n        int
	weighted bool
	xadj     []int32
	vwgt     []int32
	inline   []byte
	long     []byte
	inOff    []int64 // per block: start of the block's inline bytes
	longOff  []int64 // per block: start of the block's long-stream bytes
}

// adjBytes returns the compressed adjacency footprint: both byte
// streams plus the block offset tables. This is the number the ≤ 60%
// acceptance bound measures against 4 bytes per directed arc.
func (c *CGraph) adjBytes() int64 {
	return int64(len(c.inline)) + int64(len(c.long)) +
		8*int64(len(c.inOff)) + 8*int64(len(c.longOff))
}

// Compress returns a graph sharing g's XAdj and VWgt whose adjacency
// (and arc weights, when present) live in the compressed block streams;
// Adjncy and EWgt are nil on the result. Compressing an already
// compressed graph returns it unchanged. Encoding is chunked over the
// hostpar substrate by block; each block's bytes are written by exactly
// one chunk, so the streams are identical for every worker count.
func Compress(g *Graph) *Graph {
	if g.Packed != nil {
		return g
	}
	n := g.NumVertices()
	c := &CGraph{n: n, weighted: g.EWgt != nil, xadj: g.XAdj, vwgt: g.VWgt}
	nb := (n + cBlock - 1) / cBlock
	c.inOff = make([]int64, nb+1)
	c.longOff = make([]int64, nb+1)
	nc := hostpar.NumChunks(nb, compressGrainBlocks)
	// Pass 1: per-block byte sizes, staged at offset b+1 for the prefix
	// sum below.
	hostpar.ForN(nb, nc, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			var inB, longB int64
			end := (b + 1) * cBlock
			if end > n {
				end = n
			}
			for v := b * cBlock; v < end; v++ {
				s, e := g.XAdj[v], g.XAdj[v+1]
				deg := int(e - s)
				if deg == 0 {
					continue
				}
				rb := rowBytes(int32(v), g.Adjncy[s:e], g.EWgt, s)
				if deg >= cLongDeg {
					inB += int64(uvarintLen64(uint64(rb)))
					longB += int64(rb)
				} else {
					inB += int64(rb)
				}
			}
			c.inOff[b+1] = inB
			c.longOff[b+1] = longB
		}
	})
	for b := 0; b < nb; b++ {
		c.inOff[b+1] += c.inOff[b]
		c.longOff[b+1] += c.longOff[b]
	}
	c.inline = make([]byte, c.inOff[nb])
	c.long = make([]byte, c.longOff[nb])
	// Pass 2: encode each block into its precomputed stream ranges.
	hostpar.ForN(nb, nc, func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			ip, lp := int(c.inOff[b]), int(c.longOff[b])
			end := (b + 1) * cBlock
			if end > n {
				end = n
			}
			for v := b * cBlock; v < end; v++ {
				s, e := g.XAdj[v], g.XAdj[v+1]
				deg := int(e - s)
				if deg == 0 {
					continue
				}
				if deg >= cLongDeg {
					rb := rowBytes(int32(v), g.Adjncy[s:e], g.EWgt, s)
					ip = putUvarint64(c.inline, ip, uint64(rb))
					lp = encodeRow(c.long, lp, int32(v), g.Adjncy[s:e], g.EWgt, s)
				} else {
					ip = encodeRow(c.inline, ip, int32(v), g.Adjncy[s:e], g.EWgt, s)
				}
			}
		}
	})
	return &Graph{XAdj: g.XAdj, VWgt: g.VWgt, Packed: c}
}

// Compressed reports whether g's adjacency is block-compressed.
func (g *Graph) Compressed() bool { return g.Packed != nil }

// AdjacencyBytes returns the bytes held by g's adjacency structure:
// the compressed streams plus offset tables when compressed, 4 bytes
// per directed arc (plus arc weights, when present) otherwise.
func (g *Graph) AdjacencyBytes() int64 {
	if g.Packed != nil {
		return g.Packed.adjBytes()
	}
	b := 4 * int64(len(g.Adjncy))
	if g.EWgt != nil {
		b += 4 * int64(len(g.EWgt))
	}
	return b
}

// Plain returns g with its adjacency materialised as plain CSR arrays:
// g itself when already plain, otherwise a decompressed copy sharing
// XAdj and VWgt. Decoding is chunked over hostpar by block; each row is
// written by exactly one chunk, so the arrays are identical for every
// worker count — and identical to the arrays Compress consumed.
func (g *Graph) Plain() *Graph {
	c := g.Packed
	if c == nil {
		return g
	}
	n := c.n
	adj := make([]int32, g.XAdj[n])
	var ewgt []int32
	if c.weighted {
		ewgt = make([]int32, len(adj))
	}
	nb := (n + cBlock - 1) / cBlock
	hostpar.ForN(nb, hostpar.NumChunks(nb, compressGrainBlocks), func(_, lo, hi int) {
		for b := lo; b < hi; b++ {
			ip, lp := int(c.inOff[b]), int(c.longOff[b])
			end := (b + 1) * cBlock
			if end > n {
				end = n
			}
			for v := b * cBlock; v < end; v++ {
				s, e := g.XAdj[v], g.XAdj[v+1]
				deg := int(e - s)
				if deg == 0 {
					continue
				}
				src, p := c.inline, ip
				if deg >= cLongDeg {
					length, np := getUvarint64(c.inline, ip)
					ip = np
					src, p = c.long, lp
					lp += int(length)
				}
				var wrow []int32
				if c.weighted {
					wrow = ewgt[s:e]
				}
				p = decodeRowInto(src, p, int32(v), adj[s:e], wrow)
				if deg < cLongDeg {
					ip = p
				}
			}
		}
	})
	return &Graph{XAdj: g.XAdj, Adjncy: adj, VWgt: g.VWgt, EWgt: ewgt}
}

// Cursor is the zero-allocation adjacency accessor shared by plain and
// compressed graphs: the one code path coarsen/embed/geopart hot loops
// use for either representation. On plain graphs Arcs returns shared
// CSR sub-slices; on compressed graphs it decodes into cursor-owned
// scratch (valid until the next Arcs call). A cursor caches its stream
// position, so ascending scans decode each byte exactly once; random
// access costs at most a cBlock-row skim from a block boundary.
//
// A Cursor is not safe for concurrent use; parallel kernels take one
// per chunk (GetCursor/Release pool them).
type Cursor struct {
	g    *Graph
	c    *CGraph
	next int32 // row the cached stream positions point at; -1 = invalid
	ip   int
	lp   int
	nbrs []int32
	wgts []int32
	ones []int32
}

// Reset points the cursor at g, keeping its scratch buffers.
func (cur *Cursor) Reset(g *Graph) {
	cur.g = g
	cur.c = g.Packed
	cur.next = -1
}

// cursorPool recycles cursors (and their decode scratch) across the
// parallel kernels that need one per chunk.
var cursorPool = sync.Pool{New: func() any { return new(Cursor) }}

// GetCursor returns a pooled cursor over g's adjacency; Release returns
// it when the chunk is done.
func GetCursor(g *Graph) *Cursor {
	cur := cursorPool.Get().(*Cursor)
	cur.Reset(g)
	return cur
}

// Release returns a cursor obtained from GetCursor to the pool.
func (cur *Cursor) Release() {
	cur.g, cur.c = nil, nil
	cursorPool.Put(cur)
}

// Arcs returns the neighbours of v and the aligned arc weights (all 1
// for unweighted graphs). The slices are only valid until the next Arcs
// call and must not be modified.
func (cur *Cursor) Arcs(v int32) ([]int32, []int32) {
	g := cur.g
	if cur.c == nil {
		lo, hi := g.XAdj[v], g.XAdj[v+1]
		nbrs := g.Adjncy[lo:hi]
		if g.EWgt != nil {
			return nbrs, g.EWgt[lo:hi]
		}
		return nbrs, cur.unit(len(nbrs))
	}
	return cur.decode(v)
}

// unit returns a shared slice of n unit weights.
func (cur *Cursor) unit(n int) []int32 {
	for len(cur.ones) < n {
		cur.ones = append(cur.ones, 1)
	}
	return cur.ones[:n]
}

// decode decompresses row v into the cursor scratch.
func (cur *Cursor) decode(v int32) ([]int32, []int32) {
	g, c := cur.g, cur.c
	deg := int(g.XAdj[v+1] - g.XAdj[v])
	cur.nbrs = grow(cur.nbrs, deg)
	if c.weighted {
		cur.wgts = grow(cur.wgts, deg)
	}
	if deg == 0 {
		return cur.nbrs, cur.unit(0)
	}
	if v != cur.next {
		cur.seek(v)
	}
	src, p := c.inline, cur.ip
	if deg >= cLongDeg {
		length, np := getUvarint64(c.inline, cur.ip)
		cur.ip = np
		src, p = c.long, cur.lp
		cur.lp += int(length)
	}
	var wrow []int32
	if c.weighted {
		wrow = cur.wgts
	}
	p = decodeRowInto(src, p, v, cur.nbrs, wrow)
	if deg < cLongDeg {
		cur.ip = p
	}
	cur.next = v + 1
	if c.weighted {
		return cur.nbrs, cur.wgts
	}
	return cur.nbrs, cur.unit(deg)
}

// seek repositions the stream cursors at row v by skimming from the
// start of v's block: short rows skip their varints, hub rows skip via
// their recorded length.
func (cur *Cursor) seek(v int32) {
	g, c := cur.g, cur.c
	b := int(v) / cBlock
	ip, lp := int(c.inOff[b]), int(c.longOff[b])
	for u := int32(b * cBlock); u < v; u++ {
		d := int(g.XAdj[u+1] - g.XAdj[u])
		if d == 0 {
			continue
		}
		if d >= cLongDeg {
			length, np := getUvarint64(c.inline, ip)
			ip = np
			lp += int(length)
			continue
		}
		k := d
		if c.weighted {
			k *= 2
		}
		ip = skipVarints(c.inline, ip, k)
	}
	cur.ip, cur.lp = ip, lp
}

// --- row codec ---------------------------------------------------------

// rowBytes returns the encoded byte length of one row: zigzag-varint
// deltas (first neighbour relative to v), with arc weights interleaved
// when ewgt is non-nil. s is the row's offset into ewgt.
func rowBytes(v int32, nbrs []int32, ewgt []int32, s int32) int {
	sz := 0
	prev := v
	for i, nb := range nbrs {
		sz += uvarintLen32(zigzag32(nb - prev))
		prev = nb
		if ewgt != nil {
			sz += uvarintLen32(zigzag32(ewgt[int(s)+i]))
		}
	}
	return sz
}

// encodeRow appends one row's encoding at dst[p:], returning the new
// position.
func encodeRow(dst []byte, p int, v int32, nbrs []int32, ewgt []int32, s int32) int {
	prev := v
	for i, nb := range nbrs {
		p = putUvarint32(dst, p, zigzag32(nb-prev))
		prev = nb
		if ewgt != nil {
			p = putUvarint32(dst, p, zigzag32(ewgt[int(s)+i]))
		}
	}
	return p
}

// decodeRowInto decodes len(nbrs) neighbours of v from src at p into
// nbrs (and weights into wgts when non-nil), returning the new
// position.
func decodeRowInto(src []byte, p int, v int32, nbrs []int32, wgts []int32) int {
	prev := v
	for i := range nbrs {
		u, np := getUvarint32(src, p)
		p = np
		prev += unzigzag32(u)
		nbrs[i] = prev
		if wgts != nil {
			w, nw := getUvarint32(src, p)
			p = nw
			wgts[i] = unzigzag32(w)
		}
	}
	return p
}

// zigzag32 maps signed deltas to unsigned varint-friendly values.
func zigzag32(v int32) uint32 { return uint32((v << 1) ^ (v >> 31)) }

func unzigzag32(u uint32) int32 { return int32(u>>1) ^ -int32(u&1) }

// uvarintLen32 returns the LEB128 byte length of u.
func uvarintLen32(u uint32) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

func uvarintLen64(u uint64) int {
	n := 1
	for u >= 0x80 {
		u >>= 7
		n++
	}
	return n
}

// putUvarint32 writes u at dst[p:] in LEB128, returning the new
// position.
func putUvarint32(dst []byte, p int, u uint32) int {
	for u >= 0x80 {
		dst[p] = byte(u) | 0x80
		u >>= 7
		p++
	}
	dst[p] = byte(u)
	return p + 1
}

func putUvarint64(dst []byte, p int, u uint64) int {
	for u >= 0x80 {
		dst[p] = byte(u) | 0x80
		u >>= 7
		p++
	}
	dst[p] = byte(u)
	return p + 1
}

// getUvarint32 reads a LEB128 value at src[p:].
func getUvarint32(src []byte, p int) (uint32, int) {
	b := src[p]
	if b < 0x80 {
		return uint32(b), p + 1
	}
	u := uint32(b & 0x7f)
	s := uint(7)
	for {
		p++
		b = src[p]
		u |= uint32(b&0x7f) << s
		if b < 0x80 {
			return u, p + 1
		}
		s += 7
	}
}

func getUvarint64(src []byte, p int) (uint64, int) {
	var u uint64
	var s uint
	for {
		b := src[p]
		p++
		u |= uint64(b&0x7f) << s
		if b < 0x80 {
			return u, p
		}
		s += 7
	}
}

// skipVarints advances p past k LEB128 values.
func skipVarints(src []byte, p, k int) int {
	for ; k > 0; p++ {
		if src[p] < 0x80 {
			k--
		}
	}
	return p
}
