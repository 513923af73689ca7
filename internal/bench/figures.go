package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
)

// Fig3 reproduces Figure 3: total modeled execution time over all nine
// graphs versus P, for ScalaPart, Pt-Scotch, ParMetis, and RCB (RCB on
// pre-computed coordinates, embedding time excluded, as in the paper).
func (h *Harness) Fig3() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: Total execution times over all %d graphs (modeled seconds).\n", len(SuiteNames()))
	fmt.Fprintf(&b, "%6s %12s %12s %12s %12s\n", "P", "ScalaPart", "Pt-Scotch", "ParMetis", "RCB")
	for _, p := range h.Ps {
		fmt.Fprintf(&b, "%6d %12.4f %12.4f %12.4f %12.4f\n", p,
			h.TotalTime(MethodSP, p), h.TotalTime(MethodPTS, p),
			h.TotalTime(MethodPM, p), h.TotalTime(MethodRCB, p))
	}
	return b.String()
}

// Fig4 reproduces Figure 4: total times for RCB versus SP-PG7-NL
// (ScalaPart excluding coarsening and embedding), the
// coordinates-already-available use case.
func (h *Harness) Fig4() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: RCB vs SP-PG7-NL total times over all graphs (modeled seconds).\n")
	fmt.Fprintf(&b, "%6s %12s %12s\n", "P", "RCB", "SP-PG7-NL")
	for _, p := range h.Ps {
		fmt.Fprintf(&b, "%6d %12.5f %12.5f\n", p,
			h.TotalTime(MethodRCB, p), h.TotalTime(MethodSPPG, p))
	}
	return b.String()
}

// figGraphTimes reproduces Figures 5 and 6: execution time versus P
// for one graph, all four parallel methods.
func (h *Harness) figGraphTimes(figure, graphName string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: Execution time for %s (modeled seconds).\n", figure, graphName)
	fmt.Fprintf(&b, "%6s %12s %12s %12s %12s\n", "P", "ScalaPart", "Pt-Scotch", "ParMetis", "RCB")
	for _, p := range h.Ps {
		fmt.Fprintf(&b, "%6d %12.5f %12.5f %12.5f %12.5f\n", p,
			h.Get(graphName, MethodSP, p).Time,
			h.Get(graphName, MethodPTS, p).Time,
			h.Get(graphName, MethodPM, p).Time,
			h.Get(graphName, MethodRCB, p).Time)
	}
	return b.String()
}

// Fig5 is hugebubbles-00020; Fig6 is G3_circuit.
func (h *Harness) Fig5() string { return h.figGraphTimes("Figure 5", "hugebubbles-00020") }

// Fig6 reports G3_circuit times versus P.
func (h *Harness) Fig6() string { return h.figGraphTimes("Figure 6", "G3_circuit") }

// Fig7 reproduces Figure 7: ScalaPart component times (coarsening,
// embedding, partitioning) as fractions of the total, summed over all
// graphs, versus P.
func (h *Harness) Fig7() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 7: ScalaPart component times as fraction of total.\n")
	fmt.Fprintf(&b, "%6s %10s %10s %10s\n", "P", "coarsen", "embed", "partition")
	for _, p := range h.Ps {
		var co, em, pa float64
		for _, name := range SuiteNames() {
			t := h.Get(name, MethodSP, p).Times
			co += t.Coarsen
			em += t.Embed
			pa += t.Partition
		}
		tot := co + em + pa
		if tot == 0 {
			tot = 1
		}
		fmt.Fprintf(&b, "%6d %10.3f %10.3f %10.3f\n", p, co/tot, em/tot, pa/tot)
	}
	return b.String()
}

// Fig8 reproduces Figure 8: the communication share of the embedding
// time versus P, summed over all graphs.
func (h *Harness) Fig8() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: Embedding time composition (communication fraction).\n")
	fmt.Fprintf(&b, "%6s %12s %12s %10s\n", "P", "embed", "embed-comm", "fraction")
	for _, p := range h.Ps {
		var em, cm float64
		for _, name := range SuiteNames() {
			t := h.Get(name, MethodSP, p).Times
			em += t.Embed
			cm += t.EmbedComm
		}
		frac := 0.0
		if em > 0 {
			frac = cm / em
		}
		fmt.Fprintf(&b, "%6d %12.4f %12.4f %10.3f\n", p, em, cm, frac)
	}
	return b.String()
}

// Fig9 reproduces Figure 9: execution times for the four largest
// graphs at P = 16..1024 for Pt-Scotch, ParMetis, and ScalaPart, plus
// the average across the four.
func (h *Harness) Fig9() string {
	var ps []int
	for _, p := range h.Ps {
		if p >= 16 {
			ps = append(ps, p)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 9: Times for the 4 largest graphs (modeled seconds).\n")
	for _, name := range append(largeFour(), "average") {
		fmt.Fprintf(&b, "%s:\n", name)
		fmt.Fprintf(&b, "  %6s %12s %12s %12s\n", "P", "Pt-Scotch", "ParMetis", "ScalaPart")
		for _, p := range ps {
			var pts, pm, sp float64
			if name == "average" {
				for _, g := range largeFour() {
					pts += h.Get(g, MethodPTS, p).Time
					pm += h.Get(g, MethodPM, p).Time
					sp += h.Get(g, MethodSP, p).Time
				}
				pts /= 4
				pm /= 4
				sp /= 4
			} else {
				pts = h.Get(name, MethodPTS, p).Time
				pm = h.Get(name, MethodPM, p).Time
				sp = h.Get(name, MethodSP, p).Time
			}
			fmt.Fprintf(&b, "  %6d %12.5f %12.5f %12.5f\n", p, pts, pm, sp)
		}
	}
	return b.String()
}

// Fig2 reproduces Figure 2's statistic: the refinement strip around the
// separator of a delaunay_n16-scale mesh contains a small multiple of
// the separator size (the paper reports 5.6×).
func (h *Harness) Fig2() (string, error) {
	n := int(65536 * h.Scale)
	if n < 1024 {
		n = 1024
	}
	g := gen.DelaunayRandom(n, 1616)
	res, err := core.PartitionChecked(g.G, 16, h.paperOptions(16))
	if err != nil {
		return "", err
	}
	sep := graph.CutSize(g.G, res.Part)
	ratio := 0.0
	if sep > 0 {
		ratio = float64(res.StripSize) / float64(sep)
	}
	return fmt.Sprintf(
		"Figure 2: strip refinement on delaunay_n16-scale mesh (n=%d, P=16).\n"+
			"  separator edges: %d   strip vertices: %d   ratio: %.1fx (paper: 5.6x)\n"+
			"  cut before refinement: %d   after: %d\n",
		g.G.NumVertices(), sep, res.StripSize, ratio, res.CutBefore, res.Cut), nil
}
