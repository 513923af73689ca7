package mpi

import "repro/internal/hostpar"

// AllToAllV delivers dest[r] to each rank r and returns the payloads
// received, indexed by source rank (empty slices where nothing was
// sent). dest[own rank] is moved across directly. bytesPerElem sizes
// the modeled payload.
//
// The implementation first exchanges per-destination counts (modeled as
// the usual MPI_Alltoall of one integer per destination: Latency·log2 P
// + PerByte·4·P per rank) and then moves only the non-empty payloads
// with point-to-point messages, receiving in ascending source order for
// determinism.
func AllToAllV[T any](c *Comm, dest [][]T, bytesPerElem int) [][]T {
	p := c.Size()
	if len(dest) != p {
		panic("mpi: AllToAllV needs one destination slice per rank")
	}
	counts := make([]int32, p)
	for r, d := range dest {
		counts[r] = int32(len(d))
	}
	recvCounts := exchangeCounts(c, counts)
	for r, d := range dest {
		if r == c.Rank() || len(d) == 0 {
			continue
		}
		c.sendOp(r, d, bytesPerElem*len(d), opAllToAllV)
	}
	out := make([][]T, p)
	out[c.Rank()] = dest[c.Rank()]
	for r := 0; r < p; r++ {
		if r == c.Rank() || recvCounts[r] == 0 {
			continue
		}
		out[r] = c.recvOp(r, opAllToAllV).([]T)
	}
	return out
}

// exchangeCounts gives every rank the column of the count matrix that
// is addressed to it: result[src] = how many elements src sends here.
// Modeled as an all-to-all of one int32 per pair.
//
// Host cost: the combine transposes the whole count matrix once
// (hostpar-chunked over destinations), so each rank reads its column
// directly — O(P²) total. The returned slice is shared read-only
// between ranks.
func exchangeCounts(c *Comm, counts []int32) []int32 {
	m := &c.world.model
	cost := collCost{
		total: m.Latency*log2ceil(c.size) + m.PerByte*4*float64(c.size) + m.PerPeer*float64(c.size),
		ts:    m.Latency * log2ceil(c.size),
		tw:    m.PerByte * 4 * float64(c.size),
		to:    m.PerPeer * float64(c.size),
		bytes: 4 * int64(c.size),
	}
	res := c.runCollective(opAllToAllVCounts, counts, transposeCounts, cost)
	return res.([][]int32)[c.rank]
}

// transposeCounts is the count exchange's combine: cols[dst][src] =
// vals[src][dst], built once by the finisher over one flat backing
// slab.
func transposeCounts(vals []any) any {
	p := len(vals)
	rows := make([][]int32, p)
	for i, v := range vals {
		rows[i] = v.([]int32)
	}
	flat := make([]int32, p*p)
	cols := make([][]int32, p)
	for dst := range cols {
		cols[dst] = flat[dst*p : (dst+1)*p : (dst+1)*p]
	}
	hostpar.ForChunked(p, 64, func(_, lo, hi int) {
		for dst := lo; dst < hi; dst++ {
			col := cols[dst]
			for src := 0; src < p; src++ {
				col[src] = rows[src][dst]
			}
		}
	})
	return cols
}
