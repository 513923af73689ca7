package geopart

import (
	"math"
	"math/rand"

	"repro/internal/embed"
	"repro/internal/geometry"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/refine"
	"repro/internal/stats"
)

// ParallelConfig configures the parallel geometric partitioner
// SP-PG7-NL: the Config candidate mix (line separators are ignored —
// the parallel formulation computes sphere separators only, as the
// paper's does) plus the strip refinement options.
type ParallelConfig struct {
	Config
	Refine      bool    // apply Fiduccia–Mattheyses on a coordinate strip
	StripFactor float64 // strip size target, × separator edge count; default 8
	FMPasses    int     // default 4
	// FullCutRounds bounds the full-cut boundary-FM rounds applied
	// after strip refinement when refine.SetFullCut is on; default 4.
	// Each round re-extracts the boundary, so the pass also stops as
	// soon as a round yields no gain.
	FullCutRounds int
}

// DefaultParallelConfig is SP-PG7-NL with strip refinement, the
// configuration ScalaPart uses.
func DefaultParallelConfig() ParallelConfig {
	cfg := G7NL()
	return ParallelConfig{Config: cfg, Refine: true}
}

func (c ParallelConfig) withDefaults() ParallelConfig {
	c.Config = c.Config.withDefaults()
	if c.StripFactor == 0 {
		c.StripFactor = 8
	}
	if c.FMPasses == 0 {
		c.FMPasses = 4
	}
	if c.FullCutRounds == 0 {
		c.FullCutRounds = 4
	}
	return c
}

// Defaults returns the config with every zero field replaced by its
// default, exactly as ParallelPartition will resolve it. Callers that
// reuse the partitioner's balance tolerance or FM pass count outside a
// partition call (core's evolutionary combine does) read it here so
// both sides agree.
func (c ParallelConfig) Defaults() ParallelConfig { return c.withDefaults() }

// ParallelResult is one rank's share of a parallel bisection plus the
// global statistics every rank ends up knowing.
type ParallelResult struct {
	OwnedIDs  []int32
	Side      []int32 // per owned vertex
	Cut       int64   // global cut weight after refinement
	CutBefore int64   // global cut weight of the raw geometric separator
	SideW     [2]int64
	Imbalance float64
	StripSize int // vertices in the refinement strip (0 when Refine off)
	Boundary  int // free set of the last full-cut round (0 unless full-cut ran)
	Tries     int
}

// sampleEntry carries a sampled coordinate with its vertex id for
// tie-broken medians.
type sampleEntry struct {
	ID int32
	P  geometry.Vec2
}

// valueAbove reports whether (val, id) exceeds the threshold pair.
func valueAbove(val float64, id int32, tVal float64, tID int32) bool {
	if val != tVal {
		return val > tVal
	}
	return id > tID
}

// candSet is the great-circle candidate set: per retained centerpoint
// one Möbius map, and per candidate a direction with its sampled median
// threshold. Candidates of centerpoint m occupy the contiguous index
// range [mobStart[m], mobStart[m+1]).
type candSet struct {
	ms       []geometry.Moebius
	dirs     []geometry.Vec3
	tVal     []float64
	tID      []int32
	mobOf    []int32 // candidate -> centerpoint index
	mobStart []int32 // len(ms)+1 prefix offsets into dirs
}

// buildCandidates constructs the candidate set from the gathered
// sample. Centerpoints that would receive zero great circles (possible
// when GreatCircles < Centerpoints) form a tail of the round-robin
// split; they are skipped entirely — no Radon centerpoint iteration,
// no mapping of the sample — since they contribute no candidates, and
// all RNG draws that feed candidates happen before the tail.
func buildCandidates(cfg ParallelConfig, rng *rand.Rand, sample3 []geometry.Vec3) candSet {
	count := len(sample3)
	var cs candSet
	cs.mobStart = append(cs.mobStart, 0)
	mappedSample := make([]geometry.Vec3, count)
	vals := make([]float64, count)
	perCP := cfg.GreatCircles / cfg.Centerpoints
	extra := cfg.GreatCircles % cfg.Centerpoints
	for cp := 0; cp < cfg.Centerpoints; cp++ {
		circles := perCP
		if cp < extra {
			circles++
		}
		if circles == 0 {
			break
		}
		center := geometry.Vec3{}
		if count > 0 {
			center = geometry.Centerpoint(sample3, rng)
		}
		m := geometry.NewMoebius(center)
		cs.ms = append(cs.ms, m)
		for i, q := range sample3 {
			mappedSample[i] = m.Apply(q)
		}
		for t := 0; t < circles; t++ {
			u := geometry.RandomUnitVec3(rng)
			// Median over the sample = balanced threshold. Mapped
			// sphere values are continuous, so ties are measure-zero
			// and the id tie-break (needed for symmetric integer
			// coordinates in RCB) defaults to 0.
			for i, q := range mappedSample {
				vals[i] = q.Dot(u)
			}
			tVal := 0.0
			if count > 0 {
				tVal = stats.QuickSelect(vals, count/2)
			}
			cs.dirs = append(cs.dirs, u)
			cs.tVal = append(cs.tVal, tVal)
			cs.tID = append(cs.tID, 0)
			cs.mobOf = append(cs.mobOf, int32(len(cs.ms)-1))
		}
		cs.mobStart = append(cs.mobStart, int32(len(cs.dirs)))
	}
	return cs
}

// evaluated is what the selection and refinement stages consume from
// candidate evaluation: the reduced (cut, w0, w1) triples plus
// accessors for the winning candidate's sides and separator values.
type evaluated struct {
	global       []int64 // reduced contrib: (cut, w0, w1) per candidate
	ec           *edgeCache
	sideOf       func(k, i int) bool
	fillValOwned func(k int, out []float64)
	fillValGhost func(k int, out []float64)
	release      func()
}

// ParallelPartition bisects g in parallel from a distributed embedding:
// a gathered coordinate sample yields centerpoints, random great
// circles become candidates whose cut and balance contributions are
// reduced across ranks, and the best candidate is refined by FM on a
// coordinate strip around the separating circle.
//
// The paper computes the centerpoints and candidates redundantly on
// every processor from the same gathered sample. Here that
// rank-identical construction runs once, inside the sample gather (see
// sharedSample), and every rank reads the one result; the virtual clock
// never charged it, so no modeled value depends on where it runs.
func ParallelPartition(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, cfg ParallelConfig) *ParallelResult {
	c.SetPhase("geopart")
	cfg = cfg.withDefaults()
	totalW := g.TotalVertexWeight()

	ss := gatherSample(c, d, 4096, func(sample []sampleEntry) *sharedSample {
		return deriveSample(cfg, sample)
	})
	cs := &ss.cs
	if len(cs.dirs) == 0 {
		panic("geopart: ParallelPartition needs at least one great-circle candidate")
	}
	ncand := len(cs.dirs)

	// Evaluate every candidate locally and reduce (cut, w0, w1) triples.
	ev := evaluate(c, g, d, cs, ss.norm)
	defer ev.release()

	// Select the best balanced candidate (identical on all ranks).
	bestK := -1
	bestCut := int64(math.MaxInt64)
	for k := 0; k < ncand; k++ {
		cut, w0, w1 := ev.global[3*k], ev.global[3*k+1], ev.global[3*k+2]
		imb := imbalance2(w0, w1)
		if imb <= cfg.BalanceTol && cut < bestCut {
			bestCut = cut
			bestK = k
		}
	}
	if bestK < 0 {
		// No candidate within tolerance: take the most balanced one.
		bestImb := math.Inf(1)
		for k := 0; k < ncand; k++ {
			if imb := imbalance2(ev.global[3*k+1], ev.global[3*k+2]); imb < bestImb {
				bestImb = imb
				bestK = k
			}
		}
		bestCut = ev.global[3*bestK]
	}

	nOwn, nGhost := len(d.OwnedIDs), len(d.GhostIDs)
	res := &ParallelResult{
		OwnedIDs:  d.OwnedIDs,
		Side:      make([]int32, nOwn),
		Cut:       bestCut,
		CutBefore: bestCut,
		SideW:     [2]int64{ev.global[3*bestK+1], ev.global[3*bestK+2]},
		Tries:     ncand,
	}
	for i := 0; i < nOwn; i++ {
		if ev.sideOf(bestK, i) {
			res.Side[i] = 1
		}
	}
	res.Imbalance = imbalance2(res.SideW[0], res.SideW[1])

	if cfg.Refine && g.NumVertices() > 4 {
		valOwned := make([]float64, nOwn)
		ev.fillValOwned(bestK, valOwned)
		valGhost := make([]float64, nGhost)
		ev.fillValGhost(bestK, valGhost)
		bestMob := cs.ms[cs.mobOf[bestK]]
		bestU, bestT := cs.dirs[bestK], cs.tVal[bestK]
		sampleAbs := make([]float64, len(ss.sample3))
		for i, q := range ss.sample3 {
			sampleAbs[i] = math.Abs(bestMob.Apply(q).Dot(bestU) - bestT)
		}
		stripFlips := refineStrip(c, g, d, cfg, ev.ec, valOwned, valGhost, sampleAbs, bestT, totalW, res)
		if refine.FullCut() {
			// Replicate the ghosts' sides under the winning candidate:
			// the geometric side from the separator threshold, then the
			// strip flips that landed on our ghost copies.
			ghostSide := make([]int8, nGhost)
			for gi := range ghostSide {
				if valueAbove(valGhost[gi], d.GhostIDs[gi], bestT, cs.tID[bestK]) {
					ghostSide[gi] = 1
				}
			}
			for _, id := range stripFlips {
				if gi, ok := d.GhostSlot(id); ok {
					ghostSide[gi] = 1 - ghostSide[gi]
				}
			}
			refineFullCut(c, g, d, cfg, ev.ec, ghostSide, totalW, res)
		}
	}
	return res
}

// evaluate is the candidate-batched kernel: one edge topology cache
// shared by every candidate, a fused per-vertex projection pass that
// evaluates all candidate dot products for a vertex while its lifted
// point is cache-resident, packed side bitsets over owned+ghost slots,
// and a branchless XOR cut count over the edge cache.
func evaluate(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, cs *candSet, norm func(geometry.Vec2) geometry.Vec2) *evaluated {
	nOwn, nGhost := len(d.OwnedIDs), len(d.GhostIDs)
	ncand := len(cs.dirs)
	ec := buildEdgeCache(g, d)
	sc, words := getKernelScratch(ncand, nOwn, nGhost)
	block, bits := sc.block, sc.bits

	// Charged as one mapping pass per centerpoint and one scan per
	// candidate; the kernel does that work fused, which only the host
	// clock sees.
	for range cs.ms {
		c.Charge(float64(nOwn+nGhost) * 6)
	}

	contrib := make([]int64, 3*ncand)
	// Owned pass: lift each vertex once, evaluate every candidate while
	// the point is hot, and fold sides and weights in the same sweep.
	for v := 0; v < nOwn; v++ {
		id := d.OwnedIDs[v]
		p3 := geometry.StereoUp(norm(d.OwnedPos[v]))
		row := block[v*ncand : (v+1)*ncand]
		for m := range cs.ms {
			lo, hi := cs.mobStart[m], cs.mobStart[m+1]
			cs.ms[m].ApplyDots(p3, cs.dirs[lo:hi], row[lo:hi])
		}
		w := int64(g.VertexWeight(id))
		word := v >> 6
		bit := uint64(1) << (uint(v) & 63)
		for k := 0; k < ncand; k++ {
			if valueAbove(row[k], id, cs.tVal[k], cs.tID[k]) {
				bits[k*words+word] |= bit
				contrib[3*k+2] += w
			} else {
				contrib[3*k+1] += w
			}
		}
	}
	// Ghost pass: same fused evaluation, sides only, into the ghost
	// region of each candidate's bitset. Values are not materialised —
	// the winning candidate's ghost values are recomputed once after
	// selection.
	row := sc.ghostRow
	for gi := 0; gi < nGhost; gi++ {
		id := d.GhostIDs[gi]
		p3 := geometry.StereoUp(norm(d.GhostPos[gi]))
		for m := range cs.ms {
			lo, hi := cs.mobStart[m], cs.mobStart[m+1]
			cs.ms[m].ApplyDots(p3, cs.dirs[lo:hi], row[lo:hi])
		}
		slot := nOwn + gi
		word := slot >> 6
		bit := uint64(1) << (uint(slot) & 63)
		for k := 0; k < ncand; k++ {
			if valueAbove(row[k], id, cs.tVal[k], cs.tID[k]) {
				bits[k*words+word] |= bit
			}
		}
	}
	for k := 0; k < ncand; k++ {
		contrib[3*k] = ec.countCut(bits[k*words : (k+1)*words])
		c.Charge(float64(nOwn) * 4)
	}
	global := mpi.AllReduceSlice(c, contrib, 8, mpi.SumInt64)

	return &evaluated{
		global: global,
		ec:     ec,
		sideOf: func(k, i int) bool {
			return bits[k*words+(i>>6)]>>(uint(i)&63)&1 == 1
		},
		fillValOwned: func(k int, out []float64) {
			for i := range out {
				out[i] = block[i*ncand+k]
			}
		},
		fillValGhost: func(k int, out []float64) {
			m := cs.ms[cs.mobOf[k]]
			u := cs.dirs[k]
			for gi := range out {
				out[gi] = m.Apply(geometry.StereoUp(norm(d.GhostPos[gi]))).Dot(u)
			}
		},
		release: func() {
			sc.release()
			ec.release()
		},
	}
}

// ownedIndex binary-searches the local index of an owned vertex; owned
// ids are sorted by construction.
func ownedIndex(d *embed.Distributed, id int32) (int32, bool) {
	lo, hi := 0, len(d.OwnedIDs)
	for lo < hi {
		mid := (lo + hi) / 2
		if d.OwnedIDs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.OwnedIDs) && d.OwnedIDs[lo] == id {
		return int32(lo), true
	}
	return 0, false
}

// imbalance2 delegates to the canonical bisection-imbalance definition
// in the graph package, so the parallel accept path and the sequential
// one (graph.Imbalance(g, part, 2)) agree bit-for-bit on every split.
func imbalance2(w0, w1 int64) float64 {
	return graph.Imbalance2(w0, w1)
}

// gatherSample gathers an id-tagged coordinate sample of roughly
// `target` global entries and hands it to derive once per collective;
// every rank receives derive's result, which is read-only. The local
// slice is pre-sized: the stride loop contributes exactly
// ceil(len(OwnedIDs)/stride) <= len(OwnedIDs)/stride + 1 entries.
func gatherSample[R any](c *mpi.Comm, d *embed.Distributed, target int, derive func(sample []sampleEntry) R) R {
	per := target/c.Size() + 1
	var mine []sampleEntry
	if len(d.OwnedIDs) > 0 {
		stride := len(d.OwnedIDs)/per + 1
		mine = make([]sampleEntry, 0, len(d.OwnedIDs)/stride+1)
		for i := 0; i < len(d.OwnedIDs); i += stride {
			mine = append(mine, sampleEntry{ID: d.OwnedIDs[i], P: d.OwnedPos[i]})
		}
	}
	return mpi.AllGatherVWith(c, mine, 20, func(parts [][]sampleEntry) R {
		return derive(mpi.Concat(parts))
	})
}

// sharedSample is the rank-identical state of one ParallelPartition
// call, derived once from the gathered sample and read by every rank:
// the normalisation (centroid and inverse median radius), the sample
// lifted to the sphere, and the candidate set.
type sharedSample struct {
	centroid geometry.Vec2
	scale    float64
	sample3  []geometry.Vec3
	cs       candSet
}

// norm maps a coordinate into the sample's normalised frame.
func (ss *sharedSample) norm(p geometry.Vec2) geometry.Vec2 {
	return p.Sub(ss.centroid).Scale(ss.scale)
}

// deriveSample builds the sharedSample from the gathered sample. It
// reads only the sample and cfg, both identical on every rank, and its
// rng is seeded here: nothing after candidate construction draws from
// it.
func deriveSample(cfg ParallelConfig, sample []sampleEntry) *sharedSample {
	ss := &sharedSample{scale: 1}
	var sum geometry.Vec2
	for _, s := range sample {
		sum = sum.Add(s.P)
	}
	count := len(sample)
	ss.centroid = sum.Scale(1 / math.Max(float64(count), 1))
	if count > 0 {
		rs := make([]float64, count)
		for i, s := range sample {
			rs[i] = s.P.Sub(ss.centroid).Norm()
		}
		if med := stats.Quantile(rs, 0.5); med > 1e-12 {
			ss.scale = 1 / med
		}
	}
	ss.sample3 = make([]geometry.Vec3, count)
	for i, s := range sample {
		ss.sample3[i] = geometry.StereoUp(ss.norm(s.P))
	}
	ss.cs = buildCandidates(cfg, rand.New(rand.NewSource(cfg.Seed+17)), ss.sample3)
	return ss
}
