package mpi

import (
	"fmt"

	"repro/internal/hostpar"
)

// AllToAllV is the personalized all-to-all in MPI_Alltoallv's flat
// form. On entry, send holds every outgoing element laid out by
// destination rank in ascending order, and counts[r] is how many of
// them go to rank r. On return, counts[r] is how many elements arrived
// from rank r, and the returned buffer holds them laid out by source
// rank in ascending order, this rank's own block included. A rank
// therefore keeps one count array and one buffer per direction, and
// nothing of length P but the counts. bytesPerElem sizes the modeled
// payload.
//
// The implementation first exchanges per-destination counts (modeled as
// the usual MPI_Alltoall of one integer per destination: Latency·log2 P
// + PerByte·4·P per rank) and then moves only the non-empty blocks with
// point-to-point messages, receiving in ascending source order for
// determinism. A block that arrives shorter than announced (an injected
// TruncatePayload) is kept as it arrived and its count says so, which
// leaves the caller to reject it.
func AllToAllV[T any](c *Comm, send []T, counts []int32, bytesPerElem int) []T {
	p, me := c.Size(), c.Rank()
	if len(counts) != p {
		panic("mpi: AllToAllV needs one count per rank")
	}
	recvCounts := exchangeCounts(c, counts)
	var own []T
	off, total := 0, 0
	for r, n := range counts {
		blk := send[off : off+int(n) : off+int(n)]
		off += int(n)
		total += int(recvCounts[r])
		switch {
		case r == me:
			own = blk
		case n > 0:
			c.sendOp(r, blk, bytesPerElem*len(blk), opAllToAllV)
		}
	}
	out := make([]T, total)
	at := 0
	for r := 0; r < p; r++ {
		var blk []T
		switch {
		case r == me:
			blk = own
		case recvCounts[r] > 0:
			blk = c.recvOp(r, opAllToAllV).([]T)
		}
		counts[r] = int32(copy(out[at:], blk))
		at += int(counts[r])
	}
	return out[:at]
}

// exchangeCounts gives every rank the column of the count matrix that
// is addressed to it: result[src] = how many elements src sends here.
// Modeled as an all-to-all of one int32 per pair.
//
// Host cost: the combine transposes the whole count matrix once
// (hostpar-chunked over destinations), so each rank reads its column
// directly — O(P²) total. The returned slice is shared read-only
// between ranks, and counts is read only inside the combine.
func exchangeCounts(c *Comm, counts []int32) []int32 {
	cols := collective(c, opAllToAllVCounts, counts, c.world.model.countsCost(c.size), c.world.transposeCounts)
	return cols[c.rank*c.size : (c.rank+1)*c.size : (c.rank+1)*c.size]
}

// transposeCounts is the count exchange's combine at the given host
// width: it lays the count matrix out column-major in one flat slab, so
// that cols[dst·P+src] = rows[src][dst]. A row of the wrong length (a
// TruncatePayload fault halves one) panics before the transpose forks.
func transposeCounts(width int, rows [][]int32) []int32 {
	p := len(rows)
	for src, row := range rows {
		if len(row) != p {
			panic(fmt.Sprintf("mpi: rank %d sent %d counts to a %d-rank count exchange", src, len(row), p))
		}
	}
	cols := make([]int32, p*p)
	hostpar.ForN(p, hostpar.NumChunksAt(width, p, 64), func(_, lo, hi int) {
		for dst := lo; dst < hi; dst++ {
			col := cols[dst*p : (dst+1)*p]
			for src := 0; src < p; src++ {
				col[src] = rows[src][dst]
			}
		}
	})
	return cols
}
