package geopart

import (
	"sort"

	"repro/internal/embed"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// ParallelRCB computes a recursive-coordinate-bisection single cut in
// parallel from a distributed embedding (or distributed natural
// coordinates): the median plane orthogonal to the wider global extent,
// with the median estimated from a gathered sample as Zoltan does. Its
// communication is three short collectives, which is why RCB is the
// scalability yardstick of the paper. The axis and the median are
// rank-identical, so they are derived once inside the sample gather;
// the cut is counted over the edge topology cache.
func ParallelRCB(c *mpi.Comm, g *graph.Graph, d *embed.Distributed) *ParallelResult {
	pl := gatherSample(c, d, 4096, rcbMedian)
	axis := func(p geometry.Vec2) float64 {
		if pl.useX {
			return p.X
		}
		return p.Y
	}

	nOwn, nGhost := len(d.OwnedIDs), len(d.GhostIDs)
	sides := make([]bool, nOwn)
	var cut, w0, w1 int64
	// Resolve the topology once, side every owned and ghost slot, and
	// count the cut by array indexing.
	ec := buildEdgeCache(g, d)
	slotSide := make([]bool, nOwn+nGhost)
	for i, id := range d.OwnedIDs {
		s := valueAbove(axis(d.OwnedPos[i]), id, pl.tVal, pl.tID)
		sides[i] = s
		slotSide[i] = s
		if s {
			w1 += int64(g.VertexWeight(id))
		} else {
			w0 += int64(g.VertexWeight(id))
		}
	}
	for gi, id := range d.GhostIDs {
		slotSide[nOwn+gi] = valueAbove(axis(d.GhostPos[gi]), id, pl.tVal, pl.tID)
	}
	for e := range ec.cutA {
		if slotSide[ec.cutA[e]] != slotSide[ec.cutB[e]] {
			cut += ec.cutW[e]
		}
	}
	ec.release()
	c.Charge(float64(nOwn) * 3)
	if rcbModelVersion.Load() >= 2 {
		chargeZoltanRCB(c, g.NumVertices(), nOwn)
	}
	global := mpi.AllReduceSlice(c, []int64{cut, w0, w1}, 8, mpi.SumInt64)
	res := &ParallelResult{
		OwnedIDs:  d.OwnedIDs,
		Side:      make([]int32, nOwn),
		Cut:       global[0],
		CutBefore: global[0],
		SideW:     [2]int64{global[1], global[2]},
		Tries:     1,
	}
	for i, s := range sides {
		if s {
			res.Side[i] = 1
		}
	}
	res.Imbalance = imbalance2(res.SideW[0], res.SideW[1])
	return res
}

// rcbPlane is the cut plane of ParallelRCB: the axis and the
// id-tie-broken sample median along it.
type rcbPlane struct {
	useX bool
	tVal float64
	tID  int32
}

// rcbMedian picks the wider axis of the gathered sample's extent (the
// cut only needs the wider axis, not exact bounds) and the sample
// median along it, with an id tie-break.
func rcbMedian(sample []sampleEntry) rcbPlane {
	var lo, hi [2]float64
	for i, s := range sample {
		x, y := s.P.X, s.P.Y
		if i == 0 {
			lo, hi = [2]float64{x, y}, [2]float64{x, y}
			continue
		}
		if x < lo[0] {
			lo[0] = x
		}
		if x > hi[0] {
			hi[0] = x
		}
		if y < lo[1] {
			lo[1] = y
		}
		if y > hi[1] {
			hi[1] = y
		}
	}
	pl := rcbPlane{useX: hi[0]-lo[0] >= hi[1]-lo[1]}
	type vi struct {
		v  float64
		id int32
	}
	vis := make([]vi, len(sample))
	for i, s := range sample {
		v := s.P.Y
		if pl.useX {
			v = s.P.X
		}
		vis[i] = vi{v, s.ID}
	}
	sort.Slice(vis, func(a, b int) bool {
		if vis[a].v != vis[b].v {
			return vis[a].v < vis[b].v
		}
		return vis[a].id < vis[b].id
	})
	if len(vis) > 0 {
		m := vis[len(vis)/2]
		pl.tVal, pl.tID = m.v, m.id
	}
	return pl
}

// chargeZoltanRCB charges the cost a real Zoltan RCB run pays that the
// version-1 model omitted: at every recursion level (log2 P levels for
// a P-way decomposition) the median is located by bisection — each
// iteration rescans the local coordinates and closes with a short
// 3-double reduction over the process group active at that level — and
// once the median is fixed, every local vertex's coordinate record
// migrates to its new owner half. The version-1 model charged one scan
// and one reduction total, which is why modeled RCB undercut SP-PG at
// every P (the vanished Figure 4 crossover); real RCB pays
// O(log P · iters) collective latencies plus O(n/P) migration per
// level, and at high P the latency term dominates exactly as the paper
// observes.
func chargeZoltanRCB(c *mpi.Comm, n, nOwn int) {
	p := c.Size()
	levels := log2ceil(p)
	if levels < 1 {
		levels = 1 // P=1 still pays the sequential median searches
	}
	// Median bisection iterations: Zoltan iterates until the weight
	// tolerance is met, which converges like binary search on the
	// coordinate range — bounded below by a small constant floor.
	iters := 8
	if lg := log2ceil(n + 1); lg > iters {
		iters = lg
	}
	m := c.Model()
	for l := 0; l < levels; l++ {
		// Each bisection iteration rescans the local coordinates
		// (compare + two weight accumulators per vertex).
		c.Charge(float64(iters) * float64(nOwn) * 3)
		if p <= 1 {
			continue
		}
		// Process group active at this level: halves every recursion.
		groupP := p >> l
		if groupP < 2 {
			groupP = 2
		}
		lg := float64(log2ceil(groupP))
		// Per iteration one 3-double (24-byte) reduction over the group.
		median := float64(iters) * (m.Latency + m.PerByte*24) * lg
		// Coordinate migration: pairwise exchange of ~half the local
		// records (id + 2 doubles ≈ 20 bytes each, charged for the full
		// local share as Zoltan packs/unpacks both directions).
		migr := 2*m.Latency + m.PerByte*float64(nOwn)*20 + 2*m.PerPeer
		c.SyncCostParts(median+migr,
			float64(iters)*m.Latency*lg+2*m.Latency,
			float64(iters)*m.PerByte*24*lg+m.PerByte*float64(nOwn)*20,
			2*m.PerPeer)
	}
}

// log2ceil mirrors mpi's tree-depth helper: ceil(log2 x) with
// log2ceil(x<=1) = 0.
func log2ceil(x int) int {
	lg := 0
	for s := 1; s < x; s <<= 1 {
		lg++
	}
	return lg
}
