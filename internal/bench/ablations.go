package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/geopart"
)

// ablationGraph is the workload used by the design-choice ablations: a
// mid-sized Delaunay mesh at the harness scale.
const ablationGraph = "delaunay_n20"
const ablationP = 64

// AblationBlockSize varies the staleness block (iterations between
// global refreshes): the paper reports no observable quality change for
// blocks of 2–8 while global communication drops accordingly.
func (h *Harness) AblationBlockSize() (string, error) {
	g := h.Graph(ablationGraph)
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: staleness block size (graph %s, P=%d).\n", ablationGraph, ablationP)
	fmt.Fprintf(&b, "%6s %8s %12s %12s\n", "block", "cut", "embed(s)", "embed-comm")
	for _, bs := range []int{1, 2, 4, 8} {
		opt := h.paperOptions(seedOf(ablationGraph))
		opt.Embed.BlockSize = bs
		res, err := core.PartitionChecked(g.G, ablationP, opt)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%6d %8d %12.4f %12.4f\n", bs, res.Cut, res.Times.Embed, res.Times.EmbedComm)
	}
	return b.String(), nil
}

// AblationStripFM quantifies the strip refinement's contribution, the
// mechanism behind Table 2's "Best SP" improvement over G30.
func (h *Harness) AblationStripFM() (string, error) {
	g := h.Graph(ablationGraph)
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: strip Fiduccia–Mattheyses refinement (graph %s, P=%d).\n", ablationGraph, ablationP)
	fmt.Fprintf(&b, "%8s %8s %10s %12s\n", "refine", "cut", "strip", "partit.(s)")
	for _, refine := range []bool{false, true} {
		opt := h.paperOptions(seedOf(ablationGraph))
		opt.Partition.Refine = refine
		res, err := core.PartitionChecked(g.G, ablationP, opt)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%8v %8d %10d %12.5f\n", refine, res.Cut, res.StripSize, res.Times.Partition)
	}
	return b.String(), nil
}

// AblationTries varies the number of great-circle candidates (the G7
// vs G30 trade-off inside the parallel partitioner).
func (h *Harness) AblationTries() (string, error) {
	g := h.Graph(ablationGraph)
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: great-circle tries (graph %s, P=%d).\n", ablationGraph, ablationP)
	fmt.Fprintf(&b, "%6s %8s %12s\n", "tries", "cut", "partit.(s)")
	for _, tries := range []int{3, 7, 15, 30} {
		opt := h.paperOptions(seedOf(ablationGraph))
		opt.Partition.GreatCircles = tries
		res, err := core.PartitionChecked(g.G, ablationP, opt)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&b, "%6d %8d %12.5f\n", tries, res.Cut, res.Times.Partition)
	}
	return b.String(), nil
}

// AblationLevelRetention compares the paper's retain-every-other-level
// quartering hierarchy against retaining every halving step.
func (h *Harness) AblationLevelRetention() (string, error) {
	g := h.Graph(ablationGraph)
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: hierarchy level retention (graph %s, P=%d).\n", ablationGraph, ablationP)
	fmt.Fprintf(&b, "%22s %8s %12s\n", "levels", "cut", "total(s)")
	for _, steps := range []int{1, 2} {
		opt := h.paperOptions(seedOf(ablationGraph))
		opt.Coarsen.StepsPerLevel = steps
		opt.Coarsen.RankDecay = 1 << steps
		res, err := core.PartitionChecked(g.G, ablationP, opt)
		if err != nil {
			return "", err
		}
		label := "every level (halve)"
		if steps == 2 {
			label = "every other (quarter)"
		}
		fmt.Fprintf(&b, "%22s %8d %12.4f\n", label, res.Cut, res.Times.Total)
	}
	return b.String(), nil
}

// AblationLatticeVsExact compares the fixed-lattice parallel embedding
// against an exact sequential Barnes–Hut embedding feeding the same
// parallel geometric partitioner: the quality cost of the lattice
// approximation.
func (h *Harness) AblationLatticeVsExact() (string, error) {
	g := h.Graph(ablationGraph)
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: lattice embedding vs exact sequential embedding (graph %s, P=%d).\n", ablationGraph, ablationP)
	opt := h.paperOptions(seedOf(ablationGraph))
	lat, err := core.PartitionChecked(g.G, ablationP, opt)
	if err != nil {
		return "", err
	}
	coords := embed.SequentialLayout(g.G, embed.SeqOptions{Seed: seedOf(ablationGraph)})
	exact, err := core.PartitionGeometricChecked(g.G, coords, ablationP, geopart.DefaultParallelConfig(), h.paperModel())
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  lattice embedding + SP-PG7-NL: cut %d\n", lat.Cut)
	fmt.Fprintf(&b, "  exact BH embedding + SP-PG7-NL: cut %d\n", exact.Cut)
	natural := "n/a"
	if g.Coords != nil {
		nat, err := core.PartitionGeometricChecked(g.G, g.Coords, ablationP, geopart.DefaultParallelConfig(), h.paperModel())
		if err != nil {
			return "", err
		}
		natural = fmt.Sprintf("%d", nat.Cut)
	}
	fmt.Fprintf(&b, "  natural coordinates + SP-PG7-NL: cut %s\n", natural)
	return b.String(), nil
}

// AblationSSDE compares the paper's Section 5 proposal — sampled
// spectral distance embedding — against the force-directed lattice
// embedding as the coordinate source for the parallel geometric
// partitioner.
func (h *Harness) AblationSSDE() (string, error) {
	g := h.Graph(ablationGraph)
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: SSDE vs force-directed embedding (graph %s, P=%d).\n", ablationGraph, ablationP)
	lat, err := core.PartitionChecked(g.G, ablationP, h.paperOptions(seedOf(ablationGraph)))
	if err != nil {
		return "", err
	}
	ssde := embed.SSDELayout(g.G, seedOf(ablationGraph))
	sp, err := core.PartitionGeometricChecked(g.G, ssde, ablationP, geopart.DefaultParallelConfig(), h.paperModel())
	if err != nil {
		return "", err
	}
	fmt.Fprintf(&b, "  lattice force embedding: cut %d (embed %.4fs modeled)\n", lat.Cut, lat.Times.Embed)
	fmt.Fprintf(&b, "  SSDE embedding:          cut %d (embedding cost ~%d BFS sweeps + power iteration)\n", sp.Cut, 30)
	return b.String(), nil
}

// qualityGraph is the workload of the quality experiment, the graph of
// EXPERIMENTS.md's quality tables.
const qualityGraph = "hugetrace-00000"

// Quality reruns qualityGraph through the harness at each P of the
// sweep with the quality knobs toggled: no extra refinement, full-cut
// refinement, and full-cut refinement under the evolutionary search
// with h.Trials trials. Each row is an ordinary cached harness run; the
// harness's own FullCutRounds and Trials are restored on return.
func (h *Harness) Quality() string {
	fullCutRounds, trials := h.FullCutRounds, h.Trials
	defer func() { h.FullCutRounds, h.Trials = fullCutRounds, trials }()
	var b strings.Builder
	row := func(p, fullCutRounds, trials int) {
		h.FullCutRounds, h.Trials = fullCutRounds, trials
		refine := "off"
		if fullCutRounds > 0 {
			refine = "full"
		}
		r := h.Get(qualityGraph, MethodSP, p)
		fmt.Fprintf(&b, "%-22s cut=%d imb=%.6f modeled=%.6f\n",
			fmt.Sprintf("refine=%s trials=%d", refine, trials), r.Cut, r.Imbalance, r.Time)
	}
	for i, p := range h.Ps {
		if i > 0 {
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "Quality knobs (graph %s, P=%d).\n", qualityGraph, p)
		row(p, 0, 1)
		row(p, geopart.FullRefineRounds, 1)
		row(p, geopart.FullRefineRounds, max(trials, 1))
	}
	return b.String()
}
