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

// selection is the rank-identical outcome of the candidate reduction,
// derived once per collective from the reduced (cut, w0, w1) triples:
// the winning candidate, its cut and side weights, and the half-width
// of the refinement strip around its separator (0: no strip).
type selection struct {
	k     int
	cut   int64
	sideW [2]int64
	eps   float64
}

// selectCandidate picks the best balanced candidate from the reduced
// triples, or the most balanced one when none is within tolerance, and
// sets the strip half-width when strip refinement will run. It reads
// only the reduced triples, the shared sample, cfg and n, all identical
// on every rank, so it runs once inside the reduction.
func selectCandidate(cfg ParallelConfig, ss *sharedSample, n int, global []int64) selection {
	ncand := len(ss.cs.dirs)
	bestK := -1
	bestCut := int64(math.MaxInt64)
	for k := 0; k < ncand; k++ {
		cut, w0, w1 := global[3*k], global[3*k+1], global[3*k+2]
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
			if imb := imbalance2(global[3*k+1], global[3*k+2]); imb < bestImb {
				bestImb = imb
				bestK = k
			}
		}
		bestCut = global[3*bestK]
	}
	sel := selection{k: bestK, cut: bestCut, sideW: [2]int64{global[3*bestK+1], global[3*bestK+2]}}
	if cfg.Refine && n > 4 {
		sel.eps = stripWidth(cfg, ss, bestK, bestCut, n)
	}
	return sel
}

// stripWidth is the strip half-width eps around candidate k's
// separator: the sample quantile of |value - threshold| that puts
// roughly StripFactor × cutBefore vertices (at least 64, at most n/4)
// inside the strip. It returns 0 when there is no strip to refine.
func stripWidth(cfg ParallelConfig, ss *sharedSample, k int, cutBefore int64, n int) float64 {
	target := int(cfg.StripFactor * float64(cutBefore))
	if target < 64 {
		target = 64
	}
	if target > n/4 {
		target = n / 4
	}
	if target < 1 || len(ss.sample3) == 0 {
		return 0
	}
	frac := float64(target) / float64(n)
	if frac > 1 {
		frac = 1
	}
	cs := &ss.cs
	m, u, t := cs.ms[cs.mobOf[k]], cs.dirs[k], cs.tVal[k]
	abs := make([]float64, len(ss.sample3))
	for i, q := range ss.sample3 {
		abs[i] = math.Abs(m.Apply(q).Dot(u) - t)
	}
	return stats.Quantile(abs, frac)
}

// evaluated is what the refinement stages consume from candidate
// evaluation: the selection derived from the reduced triples plus
// accessors for the winning candidate's sides and separator values.
type evaluated struct {
	sel          selection
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
	n := g.NumVertices()

	// Evaluate every candidate locally and reduce (cut, w0, w1) triples;
	// the winner and its strip width are derived once, in the reduction.
	ev := evaluate(c, g, d, cs, ss.norm, func(global []int64) selection {
		return selectCandidate(cfg, ss, n, global)
	})
	defer ev.release()
	sel := ev.sel
	bestK := sel.k

	nOwn, nGhost := len(d.OwnedIDs), len(d.GhostIDs)
	res := &ParallelResult{
		OwnedIDs:  d.OwnedIDs,
		Side:      make([]int32, nOwn),
		Cut:       sel.cut,
		CutBefore: sel.cut,
		SideW:     sel.sideW,
		Tries:     len(cs.dirs),
	}
	for i := 0; i < nOwn; i++ {
		if ev.sideOf(bestK, i) {
			res.Side[i] = 1
		}
	}
	res.Imbalance = imbalance2(res.SideW[0], res.SideW[1])

	if cfg.Refine && n > 4 {
		valOwned := make([]float64, nOwn)
		ev.fillValOwned(bestK, valOwned)
		valGhost := make([]float64, nGhost)
		ev.fillValGhost(bestK, valGhost)
		bestT := cs.tVal[bestK]
		stripFlips := refineStrip(c, g, d, cfg, ev.ec, valOwned, valGhost, sel.eps, bestT, totalW, res)
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
// and a branchless XOR cut count over the edge cache. The reduced
// triples are handed to pick once per collective, and every rank
// receives its selection.
func evaluate(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, cs *candSet, norm func(geometry.Vec2) geometry.Vec2, pick func(global []int64) selection) *evaluated {
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
	sel := mpi.AllReduceSliceWith(c, contrib, 8, mpi.SumInt64, pick)

	return &evaluated{
		sel: sel,
		ec:  ec,
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
