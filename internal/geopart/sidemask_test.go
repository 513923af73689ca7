package geopart

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// candidateConfigs are SP-PG7-NL configurations with 7, 23 (G30's
// great circles), 64, 65 and 130 candidates: one mask word, a full
// word, and the first counts that need a second and a third.
func candidateConfigs() []ParallelConfig {
	var cfgs []ParallelConfig
	for _, c := range []struct{ circles, centerpoints int }{{7, 1}, {23, 2}, {64, 1}, {65, 2}, {130, 3}} {
		cfg := DefaultParallelConfig()
		if c.circles == 23 {
			cfg.Config = G30()
		}
		cfg.GreatCircles, cfg.Centerpoints = c.circles, c.centerpoints
		cfgs = append(cfgs, cfg.withDefaults())
	}
	return cfgs
}

// candidateSample derives the shared sample and candidate set of cfg
// from every fourth vertex of g, without a world.
func candidateSample(cfg ParallelConfig, g *gen.Generated) *sharedSample {
	var sample []sampleEntry
	for v := 0; v < g.G.NumVertices(); v += 4 {
		sample = append(sample, sampleEntry{ID: int32(v), P: g.Coords[v]})
	}
	return deriveSample(cfg, sample)
}

// partialRing returns a hand-built copy of d that ghosts only every
// other ghost of d, so half of d's boundary arcs resolve to slot -1.
func partialRing(d *embed.Distributed) *embed.Distributed {
	h := &embed.Distributed{OwnedIDs: d.OwnedIDs, OwnedPos: d.OwnedPos}
	for gi := 0; gi < len(d.GhostIDs); gi += 2 {
		h.GhostIDs = append(h.GhostIDs, d.GhostIDs[gi])
		h.GhostPos = append(h.GhostPos, d.GhostPos[gi])
	}
	return h
}

// TestSideMaskCutsMatchPerCandidateKernel is the differential test of
// candidate evaluation: on unit, weighted and compressed graphs, at
// several world sizes and candidate counts, and on views whose ghost
// ring misses neighbours, the side masks and the one adjacency pass
// must give every rank the cuts, side weights and sides of the
// per-candidate kernel they replaced (oracleContrib).
func TestSideMaskCutsMatchPerCandidateKernel(t *testing.T) {
	for _, g := range goldenGraphs() {
		for _, cfg := range candidateConfigs() {
			ss := candidateSample(cfg, g)
			ncand := len(ss.cs.dirs)
			if ncand != cfg.GreatCircles {
				t.Fatalf("%s: %d candidates, want %d", g.Name, ncand, cfg.GreatCircles)
			}
			for _, p := range []int{1, 4, 64} {
				views := embed.SplitCoords(g.G, g.Coords, p)
				if p == 4 {
					for _, d := range views[:2] {
						views = append(views, partialRing(d))
					}
				}
				for r, d := range views {
					name := fmt.Sprintf("%s ncand=%d P=%d view %d", g.Name, ncand, p, r)
					got, masks, words := localContrib(g.G, d, &ss.cs, ss.norm)
					want, bits, bw := oracleContrib(g.G, d, &ss.cs, ss.norm)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: (cut, w0, w1) %v, per-candidate kernel %v", name, got, want)
					}
					if words != maskWords(ncand) {
						t.Fatalf("%s: %d mask words, want %d", name, words, maskWords(ncand))
					}
					for s := 0; s < len(d.OwnedIDs)+len(d.GhostIDs); s++ {
						for k := 0; k < ncand; k++ {
							if maskBit(masks, words, s, k) != (bits[k*bw+s>>6]>>(s&63)&1 == 1) {
								t.Fatalf("%s: slot %d candidate %d side differs from the per-candidate kernel", name, s, k)
							}
						}
					}
				}
			}
		}
	}
}

// TestParallelPartitionManyCandidates: every candidate count runs
// end to end, past one and two mask words, and the reported cut and
// side weights match a recount of the assembled partition.
func TestParallelPartitionManyCandidates(t *testing.T) {
	g := weightedMesh(gen.DelaunayRandom(3000, 4))
	for _, cfg := range candidateConfigs() {
		for _, p := range []int{1, 16} {
			part, res := runSP(g, p, cfg, mpi.DefaultModel())
			if res.Tries != cfg.GreatCircles {
				t.Fatalf("ncand=%d P=%d: %d tries", cfg.GreatCircles, p, res.Tries)
			}
			if got := graph.CutSize(g.G, part); got != res.Cut {
				t.Fatalf("ncand=%d P=%d: reported cut %d, recount %d", cfg.GreatCircles, p, res.Cut, got)
			}
			var w [2]int64
			for v, s := range part {
				w[s] += int64(g.G.VertexWeight(int32(v)))
			}
			if w != res.SideW {
				t.Fatalf("ncand=%d P=%d: reported SideW %v, recount %v", cfg.GreatCircles, p, res.SideW, w)
			}
		}
	}
}
