// Command qualityrun reruns one suite graph through the bench harness
// — the exact configuration the recorded BENCH trajectories use — with
// the quality knobs toggled, and prints before/after rows. Used to
// produce the quality tables in EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/geopart"
	"repro/internal/mpi"
)

func main() {
	var (
		graphName = flag.String("graph", "hugetrace-00000", "suite graph")
		scale     = flag.Float64("scale", 8, "suite scale")
		p         = flag.Int("p", 16, "processor count")
		trials    = flag.Int("trials", 3, "trial count for the evolved row")
	)
	flag.Parse()
	row := func(label string, fullCutRounds, trials int) {
		h := bench.New(*scale, []int{*p})
		h.Model.Replay = mpi.ReplayBatched
		h.Compress = true
		h.FullCutRounds = fullCutRounds
		h.Trials = trials
		h.Out = os.Stderr
		r := h.Get(*graphName, bench.MethodSP, *p)
		fmt.Printf("%-22s cut=%d imb=%.6f modeled=%.6f\n", label, r.Cut, r.Imbalance, r.Time)
	}
	full := geopart.FullRefineRounds
	row("refine=off trials=1", 0, 1)
	row("refine=full trials=1", full, 1)
	fmt.Println()
	row(fmt.Sprintf("refine=full trials=%d", *trials), full, *trials)
}
