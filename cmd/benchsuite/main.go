// Command benchsuite regenerates the paper's evaluation tables and
// figures on the synthetic suite. Each experiment prints the same rows
// or series the paper reports; execution times are the simulated
// runtime's virtual clocks (see internal/mpi).
//
//	benchsuite                          # everything, default scale
//	benchsuite -experiment fig3         # one experiment
//	benchsuite -scale 0.25 -ps 1,16,256 # quicker sweep
//	benchsuite -workers 4 -cpuprofile cpu.pb.gz
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/gen"
	"repro/internal/geopart"
	"repro/internal/hostpar"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "table1|table2|table3|table4|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|ablations|chaos|all (chaos runs only by name)")
		scale      = flag.Float64("scale", 1.0, "suite size scale (1 = default bench sizes)")
		psFlag     = flag.String("ps", "", "comma-separated processor sweep (default 1,2,...,1024)")
		workers    = flag.Int("workers", 0, "worker pool size for the sweep and the fork-join kernels (0 = one per core)")
		compress   = flag.Bool("compress", false, "hold suite graphs in the delta/varint compressed adjacency representation (identical tables; smaller footprint)")
		refineFlag = flag.String("refine", "off", "extra refinement beyond the always-on strip FM: off (historical pipeline) | full (full-cut distributed boundary FM)")
		trials     = flag.Int("trials", 1, "evolutionary search width for the ScalaPart rows: N embed+partition trials with decorrelated seeds (1 = single pass)")
		phaseBreak = flag.Bool("phase-breakdown", false, "print the per-phase virtual-time and byte-volume breakdown of the ScalaPart sweep, then exit")
		chaosSeed  = flag.Int64("chaos-seed", 1, "base seed for the chaos experiment's fault schedules")
		chaosRuns  = flag.Int("chaos-schedules", 3, "fault schedules per (graph, P, policy) in the chaos experiment")
		quiet      = flag.Bool("q", false, "suppress progress logging")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if err := gen.CheckScale(*scale); err != nil {
		fmt.Fprintf(os.Stderr, "benchsuite: -scale: %v\n", err)
		os.Exit(2)
	}
	// hostpar.SetWorkers would read a negative count as "one per core".
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "benchsuite: -workers must not be negative (got %d)\n", *workers)
		os.Exit(2)
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
	ps := bench.DefaultPs()
	if *psFlag != "" {
		ps = ps[:0]
		for _, tok := range strings.Split(*psFlag, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || v < 1 {
				fmt.Fprintf(os.Stderr, "benchsuite: bad -ps entry %q\n", tok)
				os.Exit(1)
			}
			ps = append(ps, v)
		}
	}
	// One setting bounds both pools: concurrent sweep runs and the
	// fork-join kernels inside each run share the host's cores.
	hostpar.SetWorkers(*workers)
	h := bench.New(*scale, ps)
	switch *refineFlag {
	case "off":
	case "full":
		h.FullCutRounds = geopart.FullRefineRounds
	default:
		fmt.Fprintf(os.Stderr, "benchsuite: unknown -refine mode %q (want off or full)\n", *refineFlag)
		os.Exit(1)
	}
	if *trials < 1 {
		fmt.Fprintf(os.Stderr, "benchsuite: -trials must be >= 1 (got %d)\n", *trials)
		os.Exit(1)
	}
	h.Workers = *workers
	h.Compress = *compress
	h.Trials = *trials
	if !*quiet {
		h.Out = os.Stderr
	}
	if *phaseBreak {
		fmt.Println(h.PhaseBreakdown())
		return
	}
	if *experiment == "all" {
		// Warm the run cache for the full sweep in parallel; the
		// experiments below then assemble tables from cached runs.
		h.Precompute(bench.ParallelMethods())
	}
	experiments := []struct {
		name string
		run  func() string
	}{
		{"table1", h.Table1},
		{"table2", h.Table2},
		{"table3", h.Table3},
		{"fig2", h.Fig2},
		{"fig3", h.Fig3},
		{"fig4", h.Fig4},
		{"fig5", h.Fig5},
		{"fig6", h.Fig6},
		{"fig7", h.Fig7},
		{"fig8", h.Fig8},
		{"fig9", h.Fig9},
		{"table4", h.Table4},
		{"ablations", func() string {
			return h.AblationLatticeVsExact() + "\n" + h.AblationBlockSize() + "\n" +
				h.AblationStripFM() + "\n" + h.AblationTries() + "\n" +
				h.AblationLevelRetention() + "\n" + h.AblationSSDE()
		}},
		{"chaos", func() string {
			// The chaos soak is survivability evidence, not a paper
			// experiment: randomized fault schedules against both recovery
			// policies, every outcome verified. It runs only when asked for
			// by name, never under "all".
			return h.ChaosSoak(bench.ChaosConfig{
				Graphs:    []string{"ecology1", "ecology2", "delaunay_n20"},
				Ps:        []int{4, 16},
				Schedules: *chaosRuns,
				Seed:      *chaosSeed,
				Workers:   *workers,
			}).String()
		}},
	}
	ran := false
	for _, e := range experiments {
		if *experiment != e.name && (*experiment != "all" || e.name == "chaos") {
			continue
		}
		ran = true
		fmt.Println(e.run())
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "benchsuite: unknown experiment %q\n", *experiment)
		os.Exit(1)
	}
}
