// Command benchsuite regenerates the paper's evaluation tables and
// figures on the synthetic suite. Each experiment prints the same rows
// or series the paper reports; execution times are the simulated
// runtime's virtual clocks (see internal/mpi).
//
//	benchsuite                          # everything, default scale
//	benchsuite -experiment fig3         # one experiment
//	benchsuite -scale 0.25 -ps 1,16,256 # quicker sweep
//	benchsuite -workers 4 -cpuprofile cpu.pb.gz
//	benchsuite -experiment quality -scale 8 -ps 16 -compress -trials 3
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/geopart"
	"repro/internal/hostpar"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ablations|quality|chaos|all (quality and chaos run only by name)")
		scale      = flag.Float64("scale", 1.0, "suite size scale (1 = default bench sizes)")
		psFlag     = flag.String("ps", "", "comma-separated processor sweep (default 1,2,...,1024)")
		workers    = flag.Int("workers", 0, "worker pool size for the sweep and the fork-join kernels (0 = one per core)")
		compress   = flag.Bool("compress", false, "hold suite graphs in the delta/varint compressed adjacency representation (identical tables; smaller footprint)")
		refineFlag = flag.String("refine", "off", "extra refinement beyond the always-on strip FM: off (historical pipeline) | full (full-cut distributed boundary FM); the quality experiment sets its own")
		trials     = flag.Int("trials", 1, "evolutionary search width for the ScalaPart rows: N embed+partition trials with decorrelated seeds (1 = single pass); the width of the quality experiment's last row")
		phaseBreak = flag.Bool("phase-breakdown", false, "print the per-phase virtual-time and byte-volume breakdown of the ScalaPart sweep, then exit")
		chaosSeed  = flag.Int64("chaos-seed", 1, "base seed for the chaos experiment's fault schedules")
		chaosRuns  = flag.Int("chaos-schedules", 3, "fault schedules per (graph, P, policy) in the chaos experiment")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "benchsuite: "+format+"\n", args...)
		os.Exit(2)
	}
	if err := gen.CheckScale(*scale); err != nil {
		usage("-scale: %v", err)
	}
	// hostpar.SetWorkers would read a negative count as "one per core".
	if *workers < 0 {
		usage("-workers must not be negative (got %d)", *workers)
	}
	ps, err := bench.ParsePs(*psFlag)
	if err != nil {
		usage("-ps: %v", err)
	}
	h := bench.New(*scale, ps)
	switch *refineFlag {
	case "off":
	case "full":
		h.FullCutRounds = geopart.FullRefineRounds
	default:
		usage("unknown -refine mode %q (want off or full)", *refineFlag)
	}
	if *trials < 1 {
		usage("-trials must be >= 1 (got %d)", *trials)
	}
	h.Compress = *compress
	h.Trials = *trials
	if !*quiet {
		h.Out = os.Stderr
	}
	rendered := func(f func() string) func() (string, error) {
		return func() (string, error) { return f(), nil }
	}
	experiments := []struct {
		name string
		run  func() (string, error)
		// byName experiments run only when named, never under "all".
		byName bool
	}{
		{name: "table1", run: rendered(h.Table1)},
		{name: "table2", run: rendered(h.Table2)},
		{name: "table3", run: rendered(h.Table3)},
		{name: "fig2", run: h.Fig2},
		{name: "fig3", run: rendered(h.Fig3)},
		{name: "fig4", run: rendered(h.Fig4)},
		{name: "fig5", run: rendered(h.Fig5)},
		{name: "fig6", run: rendered(h.Fig6)},
		{name: "fig7", run: rendered(h.Fig7)},
		{name: "fig8", run: rendered(h.Fig8)},
		{name: "fig9", run: rendered(h.Fig9)},
		{name: "table4", run: rendered(h.Table4)},
		{name: "ablations", run: func() (string, error) {
			var parts []string
			for _, ablation := range []func() (string, error){
				h.AblationLatticeVsExact, h.AblationBlockSize, h.AblationStripFM,
				h.AblationTries, h.AblationLevelRetention, h.AblationSSDE,
			} {
				out, err := ablation()
				if err != nil {
					return "", err
				}
				parts = append(parts, out)
			}
			return strings.Join(parts, "\n"), nil
		}},
		// The quality knobs on one graph: the rows behind EXPERIMENTS.md's
		// quality tables.
		{name: "quality", byName: true, run: rendered(h.Quality)},
		// The chaos soak is survivability evidence, not a paper
		// experiment: randomized fault schedules against both recovery
		// policies, every outcome verified.
		{name: "chaos", byName: true, run: func() (string, error) {
			return h.ChaosSoak(bench.ChaosConfig{
				Graphs:    []string{"ecology1", "ecology2", "delaunay_n20"},
				Ps:        []int{4, 16},
				Schedules: *chaosRuns,
				Seed:      *chaosSeed,
			}).String(), nil
		}},
	}
	known := *experiment == "all"
	for _, e := range experiments {
		known = known || e.name == *experiment
	}
	if !known {
		usage("unknown experiment %q", *experiment)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf != "" {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "benchsuite:", err)
			}
		}
	}()
	// One setting bounds both pools: concurrent sweep runs and the
	// fork-join kernels inside each run share the host's cores.
	hostpar.SetWorkers(*workers)
	if *phaseBreak {
		fmt.Println(h.PhaseBreakdown())
		return
	}
	if *experiment == "all" {
		// Warm the run cache for the full sweep in parallel; the
		// experiments below then assemble tables from cached runs.
		h.Precompute(bench.ParallelMethods())
	}
	for _, e := range experiments {
		if *experiment != e.name && (*experiment != "all" || e.byName) {
			continue
		}
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchsuite: experiment %s: %v\n", e.name, err)
			pprof.StopCPUProfile()
			os.Exit(1)
		}
		fmt.Println(out)
	}
}
