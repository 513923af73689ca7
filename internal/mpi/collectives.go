package mpi

// Typed collectives. These are package-level generic functions because
// Go methods cannot be generic; each runs the one rendezvous,
// collective (collfanin.go), with the Cost of its standard formula
// (cost.go) and a combine over the contributions in rank order. Every
// payload type takes the same path, in faulted and fault-free worlds
// alike, and a reduction allocates nothing in steady state
// (TestCollectiveSteadyStateAllocs).

// reduce folds one value per rank with f, in rank order, and returns
// the result to every rank: the combine of AllReduce and of the tests'
// Reduce, which differ only in their cost.
func reduce[T any](c *Comm, op *string, val T, f func(a, b T) T, cost Cost) T {
	return collective(c, op, val, cost, func(vals []T) T {
		acc := vals[0]
		for _, v := range vals[1:] {
			acc = f(acc, v)
		}
		return acc
	})
}

// AllReduce combines one value per rank with the associative op
// (applied in rank order) and returns the result to every rank. bytes
// is the payload size of one value. Cost: reduce tree + broadcast tree,
// 2·(Latency + PerByte·bytes)·log2(P).
func AllReduce[T any](c *Comm, val T, bytes int, op func(a, b T) T) T {
	return reduce(c, opAllReduce, val, op, c.world.model.allReduceCost(c.size, bytes))
}

// AllReduceSlice element-wise combines equal-length slices across
// ranks. bytesPerElem sizes the payload. Every rank receives the same
// reduced slice, which is read-only.
func AllReduceSlice[T any](c *Comm, vals []T, bytesPerElem int, op func(a, b T) T) []T {
	return AllReduceSliceWith(c, vals, bytesPerElem, op, func(reduced []T) []T { return reduced })
}

// AllReduceSliceWith is AllReduceSlice whose reduced slice is turned
// into a value once per collective: derive runs inside the combine, on
// the one rank that arrives last, and every rank receives the same R.
// It is AllGatherVWith's counterpart for reductions — a selection made
// from reduced totals runs once on the host instead of once per
// simulated rank. Cost, traffic, fault positions and trace events are
// exactly AllReduceSlice's, which is this function with an identity
// derive.
//
// derive may read the reduced slice and values that are identical on
// every rank, never rank-local state: it runs on whichever rank happens
// to finish the collective. Its result is shared by all ranks and is
// read-only to each of them. A panic in derive fails the collective
// like a panicking combine.
func AllReduceSliceWith[T, R any](c *Comm, vals []T, bytesPerElem int, op func(a, b T) T, derive func(reduced []T) R) R {
	cost := c.world.model.allReduceCost(c.size, bytesPerElem*len(vals))
	return collective(c, opAllReduceSlice, vals, cost, func(contribs [][]T) R {
		acc := append([]T(nil), contribs[0]...)
		for _, other := range contribs[1:] {
			if len(other) != len(acc) {
				panic("mpi: AllReduceSlice with mismatched lengths")
			}
			for i := range acc {
				acc[i] = op(acc[i], other[i])
			}
		}
		return derive(acc)
	})
}

// AllGatherWith gathers one value per rank, in rank order, and turns
// them into a value once per collective: derive runs inside the
// combine, on the one rank that arrives last, and every rank receives
// the same R. It is AllGatherVWith for one value per rank. Cost:
// Latency·log2(P) + PerByte·(P-1)·bytes (ring).
//
// derive may read the gathered values and values that are identical on
// every rank, never rank-local state: it runs on whichever rank happens
// to finish the collective. It receives a slice of its own; the values
// are the ranks' own contributions, so derive must not modify what they
// reference, and a result that must outlive the ranks' next writes to
// them copies them. Its result is shared by all ranks and is read-only
// to each of them. A panic in derive fails the collective like a
// panicking combine.
func AllGatherWith[T, R any](c *Comm, val T, bytes int, derive func(vals []T) R) R {
	cost := c.world.model.allGatherCost(c.size, bytes)
	return collective(c, opAllGather, val, cost, func(vals []T) R {
		return derive(append([]T(nil), vals...))
	})
}

// AllGatherVWith gathers a variable-length slice per rank, in rank
// order, and turns the contributions into a value once per collective:
// derive runs inside the combine, on the one rank that arrives last,
// and every rank receives the same R. It is how rank-identical work on
// gathered data — a concatenation, a sort, a candidate set built from a
// sample — runs once on the host instead of once per simulated rank.
// bytesPerElem sizes elements; the cost uses the true total payload:
// Latency·log2(P) + PerByte·totalBytes, after a size-exchange
// AllReduce.
//
// derive may read the gathered parts and values that are identical on
// every rank, never rank-local state: it runs on whichever rank
// happens to finish the collective. It receives a slice of its own,
// but must not modify the parts, which are the ranks' own
// contributions. Its result is shared by all ranks and is read-only to
// each of them. A panic in derive fails the collective like a
// panicking combine.
func AllGatherVWith[T, R any](c *Comm, vals []T, bytesPerElem int, derive func(parts [][]T) R) R {
	// The total size is unknown until all contributions arrive, so the
	// collective is run with a size-exchange first: a cheap AllReduce
	// of the local byte count, then the gather charged with the total.
	total := AllReduce(c, len(vals)*bytesPerElem, 8, func(a, b int) int { return a + b })
	cost := c.world.model.allGatherVCost(c.size, total)
	return collective(c, opAllGatherV, vals, cost, func(parts [][]T) R {
		return derive(append([][]T(nil), parts...))
	})
}

// Concat flattens rank-ordered gathered slices.
func Concat[T any](parts [][]T) []T {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]T, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// SumInt64 returns a + b.
func SumInt64(a, b int64) int64 { return a + b }
