package mpi

import (
	"math"

	"repro/internal/geometry"
)

// Typed collectives. These are package-level generic functions because
// Go methods cannot be generic; each wraps Comm.runCollective with the
// Cost of its standard formula (cost.go).
//
// The reduction-shaped collectives (AllReduce, and Reduce, which only
// the tests use) additionally have an allocation-free fast path on the
// fan-in engine: the hot payload types of the pipeline — float64,
// int64, int, geometry.Vec2, [3]float64 — are encoded into an inline
// [4]uint64 slot word instead of boxing through `any`, and the user's
// operator is applied to the decoded values in exactly the same
// rank-index order, so the result is bit-identical to the boxed path
// (TestCollectiveWordPathMatchesBoxed pins this). Worlds with a fault plan always box, because injected
// payload truncation is defined on boxed contributions.

// reduceWords runs a reduction through the word path when the payload
// type is supported, returning (true, result); (false, _) sends the
// caller to the boxed path. The operator closures below capture only
// `f` and do not escape faninWords, so the whole path allocates
// nothing.
func reduceWords[T any](c *Comm, op *string, val T, f func(a, b T) T, cost Cost) (bool, T) {
	switch p := any(&val).(type) {
	case *float64:
		g, ok := any(f).(func(float64, float64) float64)
		if !ok {
			return false, val
		}
		var w [4]uint64
		w[0] = math.Float64bits(*p)
		res := c.faninWords(op, w, func(acc, v [4]uint64) [4]uint64 {
			acc[0] = math.Float64bits(g(math.Float64frombits(acc[0]), math.Float64frombits(v[0])))
			return acc
		}, cost)
		*p = math.Float64frombits(res[0])
		return true, val
	case *int64:
		g, ok := any(f).(func(int64, int64) int64)
		if !ok {
			return false, val
		}
		var w [4]uint64
		w[0] = uint64(*p)
		res := c.faninWords(op, w, func(acc, v [4]uint64) [4]uint64 {
			acc[0] = uint64(g(int64(acc[0]), int64(v[0])))
			return acc
		}, cost)
		*p = int64(res[0])
		return true, val
	case *int:
		g, ok := any(f).(func(int, int) int)
		if !ok {
			return false, val
		}
		var w [4]uint64
		w[0] = uint64(int64(*p))
		res := c.faninWords(op, w, func(acc, v [4]uint64) [4]uint64 {
			acc[0] = uint64(int64(g(int(int64(acc[0])), int(int64(v[0])))))
			return acc
		}, cost)
		*p = int(int64(res[0]))
		return true, val
	case *geometry.Vec2:
		g, ok := any(f).(func(geometry.Vec2, geometry.Vec2) geometry.Vec2)
		if !ok {
			return false, val
		}
		var w [4]uint64
		w[0] = math.Float64bits(p.X)
		w[1] = math.Float64bits(p.Y)
		res := c.faninWords(op, w, func(acc, v [4]uint64) [4]uint64 {
			r := g(geometry.Vec2{X: math.Float64frombits(acc[0]), Y: math.Float64frombits(acc[1])},
				geometry.Vec2{X: math.Float64frombits(v[0]), Y: math.Float64frombits(v[1])})
			acc[0] = math.Float64bits(r.X)
			acc[1] = math.Float64bits(r.Y)
			return acc
		}, cost)
		p.X = math.Float64frombits(res[0])
		p.Y = math.Float64frombits(res[1])
		return true, val
	case *[3]float64:
		g, ok := any(f).(func([3]float64, [3]float64) [3]float64)
		if !ok {
			return false, val
		}
		var w [4]uint64
		w[0] = math.Float64bits(p[0])
		w[1] = math.Float64bits(p[1])
		w[2] = math.Float64bits(p[2])
		res := c.faninWords(op, w, func(acc, v [4]uint64) [4]uint64 {
			r := g(
				[3]float64{math.Float64frombits(acc[0]), math.Float64frombits(acc[1]), math.Float64frombits(acc[2])},
				[3]float64{math.Float64frombits(v[0]), math.Float64frombits(v[1]), math.Float64frombits(v[2])})
			acc[0] = math.Float64bits(r[0])
			acc[1] = math.Float64bits(r[1])
			acc[2] = math.Float64bits(r[2])
			return acc
		}, cost)
		p[0] = math.Float64frombits(res[0])
		p[1] = math.Float64frombits(res[1])
		p[2] = math.Float64frombits(res[2])
		return true, val
	}
	return false, val
}

// reduceBoxed is the shared boxed path of AllReduce and Reduce.
func reduceBoxed[T any](c *Comm, op *string, val T, f func(a, b T) T, cost Cost) T {
	res := c.runCollective(op, val, func(vals []any) any {
		acc := vals[0].(T)
		for _, v := range vals[1:] {
			acc = f(acc, v.(T))
		}
		return acc
	}, cost)
	return res.(T)
}

// AllReduce combines one value per rank with the associative op
// (applied in rank order) and returns the result to every rank. bytes
// is the payload size of one value. Cost: reduce tree + broadcast tree,
// 2·(Latency + PerByte·bytes)·log2(P).
func AllReduce[T any](c *Comm, val T, bytes int, op func(a, b T) T) T {
	cost := c.world.model.allReduceCost(c.size, bytes)
	if c.wordsEligible() {
		if done, out := reduceWords(c, opAllReduce, val, op, cost); done {
			return out
		}
	}
	return reduceBoxed(c, opAllReduce, val, op, cost)
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
	res := c.runCollective(opAllReduceSlice, vals, func(contribs []any) any {
		first := contribs[0].([]T)
		acc := append([]T(nil), first...)
		for _, cv := range contribs[1:] {
			other := cv.([]T)
			if len(other) != len(acc) {
				panic("mpi: AllReduceSlice with mismatched lengths")
			}
			for i := range acc {
				acc[i] = op(acc[i], other[i])
			}
		}
		return derive(acc)
	}, cost)
	return res.(R)
}

// AllGatherWith gathers one value per rank, in rank order, and turns
// them into a value once per collective: derive runs inside the
// combine, on the one rank that arrives last, and every rank receives
// the same R. It is AllGatherVWith for one value per rank. Cost:
// Latency·log2(P) + PerByte·(P-1)·bytes (ring).
//
// derive may read the gathered values and values that are identical on
// every rank, never rank-local state: it runs on whichever rank happens
// to finish the collective. The values are the ranks' own
// contributions, so derive must not modify what they reference, and a
// result that must outlive the ranks' next writes to them copies them.
// Its result is shared by all ranks and is read-only to each of them. A
// panic in derive fails the collective like a panicking combine.
func AllGatherWith[T, R any](c *Comm, val T, bytes int, derive func(vals []T) R) R {
	cost := c.world.model.allGatherCost(c.size, bytes)
	res := c.runCollective(opAllGather, val, func(vals []any) any {
		out := make([]T, len(vals))
		for i, v := range vals {
			out[i] = v.(T)
		}
		return derive(out)
	}, cost)
	return res.(R)
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
// happens to finish the collective. It must not modify the parts,
// which are the ranks' own contributions. Its result is shared by all
// ranks and is read-only to each of them. A panic in derive fails the
// collective like a panicking combine.
func AllGatherVWith[T, R any](c *Comm, vals []T, bytesPerElem int, derive func(parts [][]T) R) R {
	// The total size is unknown until all contributions arrive, so the
	// collective is run with a size-exchange first: a cheap AllReduce
	// of the local byte count, then the gather charged with the total.
	total := AllReduce(c, len(vals)*bytesPerElem, 8, func(a, b int) int { return a + b })
	cost := c.world.model.allGatherVCost(c.size, total)
	res := c.runCollective(opAllGatherV, vals, func(contribs []any) any {
		out := make([][]T, len(contribs))
		for i, v := range contribs {
			out[i] = v.([]T)
		}
		return derive(out)
	}, cost)
	return res.(R)
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
