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
	Refine bool // apply Fiduccia–Mattheyses on a coordinate strip
	// FullCutRounds switches on the full-cut boundary-FM pass after
	// strip refinement and bounds its rounds: 0 (the default) runs strip
	// refinement only, n > 0 runs up to n rounds. Each round
	// re-extracts the boundary, so the pass also stops as soon as a
	// round yields no gain.
	FullCutRounds int
}

// FullRefineRounds is the full-cut round count -refine full selects.
const FullRefineRounds = 4

const (
	stripFactor = 8 // strip size target, × separator edge count
	fmPasses    = 4 // FM passes of every distributed round
)

// DefaultParallelConfig is SP-PG7-NL with strip refinement, the
// configuration ScalaPart uses.
func DefaultParallelConfig() ParallelConfig {
	cfg := G7NL()
	return ParallelConfig{Config: cfg, Refine: true}
}

func (c ParallelConfig) withDefaults() ParallelConfig {
	c.Config = c.Config.withDefaults()
	return c
}

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
		imb := graph.Imbalance2(w0, w1)
		if imb <= refine.BalanceTol && cut < bestCut {
			bestCut = cut
			bestK = k
		}
	}
	if bestK < 0 {
		// No candidate within tolerance: take the most balanced one.
		bestImb := math.Inf(1)
		for k := 0; k < ncand; k++ {
			if imb := graph.Imbalance2(global[3*k+1], global[3*k+2]); imb < bestImb {
				bestImb = imb
				bestK = k
			}
		}
		bestCut = global[3*bestK]
	}
	sel := selection{k: bestK, cut: bestCut, sideW: [2]int64{global[3*bestK+1], global[3*bestK+2]}}
	if cfg.Refine && n > 4 {
		sel.eps = stripWidth(ss, bestK, bestCut, n)
	}
	return sel
}

// stripWidth is the strip half-width eps around candidate k's
// separator: the sample quantile of |value - threshold| that puts
// roughly stripFactor × cutBefore vertices (at least 64, at most n/4)
// inside the strip. It returns 0 when there is no strip to refine.
func stripWidth(ss *sharedSample, k int, cutBefore int64, n int) float64 {
	target := int(stripFactor * float64(cutBefore))
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
	sel, masks, words := evaluate(c, g, d, cs, ss.norm, func(global []int64) selection {
		return selectCandidate(cfg, ss, n, global)
	})
	bestK := sel.k

	nOwn := len(d.OwnedIDs)
	res := &ParallelResult{
		OwnedIDs:  d.OwnedIDs,
		Side:      make([]int32, nOwn),
		Cut:       sel.cut,
		CutBefore: sel.cut,
		SideW:     sel.sideW,
		Tries:     len(cs.dirs),
	}
	for i := 0; i < nOwn; i++ {
		if maskBit(masks, words, i, bestK) {
			res.Side[i] = 1
		}
	}
	res.Imbalance = graph.Imbalance2(res.SideW[0], res.SideW[1])

	if cfg.Refine && n > 4 {
		// The winner's separator values, recomputed the way evaluation
		// computed them; the masks are not read past this point.
		valOwned := separatorValues(cs, bestK, ss.norm, d.OwnedPos)
		valGhost := separatorValues(cs, bestK, ss.norm, d.GhostPos)
		bestT := cs.tVal[bestK]
		side := res.Side
		if cfg.FullCutRounds > 0 {
			// The full-cut pass also reads the ghosts' sides: extend the
			// replica over the ghost slots with their geometric side
			// under the winning candidate, so the strip flips land on
			// them too.
			side = make([]int32, nOwn+len(d.GhostIDs))
			copy(side, res.Side)
			res.Side = side[:nOwn:nOwn]
			for gi, v := range valGhost {
				if valueAbove(v, d.GhostIDs[gi], bestT, cs.tID[bestK]) {
					side[nOwn+gi] = 1
				}
			}
		}
		refineStrip(c, g, d, valOwned, valGhost, sel.eps, bestT, totalW, side, res)
		if cfg.FullCutRounds > 0 {
			refineFullCut(c, g, d, cfg, side, totalW, res)
		}
	}
	return res
}

// evaluate is the candidate-batched kernel: side masks over every owned
// and ghost slot, each vertex lifted once with all candidates evaluated
// while it is hot, and one pass over the view's resolved adjacency that
// counts every candidate's cut (see sideMasks and addCuts). The reduced
// triples are handed to pick once per collective, and every rank
// receives its selection along with its own side masks.
func evaluate(c *mpi.Comm, g *graph.Graph, d *embed.Distributed, cs *candSet, norm func(geometry.Vec2) geometry.Vec2, pick func(global []int64) selection) (selection, []uint64, int) {
	nOwn, nGhost := len(d.OwnedIDs), len(d.GhostIDs)
	ncand := len(cs.dirs)

	// Charged as one mapping pass per centerpoint and one scan per
	// candidate; the kernel does that work fused, which only the host
	// clock sees.
	for range cs.ms {
		c.Charge(float64(nOwn+nGhost) * 6)
	}
	contrib, masks, words := localContrib(g, d, cs, norm)
	for k := 0; k < ncand; k++ {
		c.Charge(float64(nOwn) * 4)
	}
	return mpi.AllReduceSliceWith(c, contrib, 8, mpi.SumInt64, pick), masks, words
}

// localContrib is this rank's (cut, w0, w1) triple per candidate, in
// candidate order, with the side masks it was counted on.
func localContrib(g *graph.Graph, d *embed.Distributed, cs *candSet, norm func(geometry.Vec2) geometry.Vec2) (contrib []int64, masks []uint64, words int) {
	ncand := len(cs.dirs)
	masks, words, upW, ownW := sideMasks(g, d, cs, norm)
	cuts := make([]int64, ncand)
	addCuts(g, d, masks, words, cuts)
	contrib = make([]int64, 3*ncand)
	for k := range cuts {
		contrib[3*k], contrib[3*k+1], contrib[3*k+2] = cuts[k], ownW-upW[k], upW[k]
	}
	return contrib, masks, words
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
// the normalisation frame (frameOf of the sample), the sample
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
	pts := make([]geometry.Vec2, len(sample))
	for i, s := range sample {
		pts[i] = s.P
	}
	ss := &sharedSample{}
	ss.centroid, ss.scale = frameOf(pts)
	ss.sample3 = make([]geometry.Vec3, len(pts))
	for i, p := range pts {
		ss.sample3[i] = geometry.StereoUp(ss.norm(p))
	}
	ss.cs = buildCandidates(cfg, rand.New(rand.NewSource(cfg.Seed+17)), ss.sample3)
	return ss
}
