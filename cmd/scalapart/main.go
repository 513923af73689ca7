// Command scalapart partitions a graph into two parts with any of the
// partitioners in this repository and reports cut size, balance, and
// modeled parallel execution time.
//
// The graph comes either from a file (-file: MatrixMarket when the name
// ends in .mtx, METIS otherwise) or from the built-in synthetic suite
// (-graph, -scale). The methods are the entries of the
// bench method table. Those needing coordinates (SP-PG7-NL, RCB, G30,
// G7, G7-NL, RCB-seq) use the graph's natural coordinates when
// available, otherwise a sequential force-directed embedding.
//
// Examples:
//
//	scalapart -graph delaunay_n20 -p 64
//	scalapart -graph hugetrace-00000 -method Pt-Scotch -p 256
//	scalapart -file mesh.graph -method RCB -p 16 -out parts.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/trace"
)

func main() {
	var (
		file        = flag.String("file", "", "graph file to partition: MatrixMarket if the name ends in .mtx, METIS otherwise")
		name        = flag.String("graph", "delaunay_n20", "built-in suite graph name (see -list)")
		scale       = flag.Float64("scale", 0.25, "size scale for built-in graphs")
		method      = flag.String("method", bench.MethodSP, strings.Join(bench.MethodNames(), " | "))
		compress    = flag.Bool("compress", false, "hold the graph in the delta/varint compressed adjacency representation (identical results, smaller footprint)")
		p           = flag.Int("p", 16, "simulated processor count")
		seed        = flag.Int64("seed", 42, "random seed")
		out         = flag.String("out", "", "write per-vertex part ids to this file")
		list        = flag.Bool("list", false, "list built-in graphs and exit")
		fault       = flag.String("fault", "", "inject faults: comma-separated kill:R@E | drop:R@E | delay:R@E+SECS | trunc:R@E")
		recoverFlag = flag.String("recover", "off", "rank-failure recovery policy for ScalaPart: off | respawn | shrink")
		retryBudget = flag.Int("retry-budget", 0, "max retransmissions per message under -recover (0 = default budget)")
		watchdog    = flag.Duration("watchdog", 0, "deadlock watchdog stall window (0 = built-in default of 2s; must not be negative)")
		refineFlag  = flag.String("refine", "off", "extra refinement beyond the always-on strip FM: off (historical pipeline) | full (full-cut distributed boundary FM)")
		trials      = flag.Int("trials", 1, "evolutionary search width for ScalaPart: run the embed+partition tail N times with decorrelated seeds and combine the two best bisections (1 = single pass)")
		workers     = flag.Int("workers", 0, "host width of the simulated run: the most chunks its per-rank kernels fork into (0 = one per core); graph loading and coarsening outside the run use GOMAXPROCS")
		phaseBreak  = flag.Bool("phase-breakdown", false, "print the per-phase virtual-time and byte-volume breakdown (Section 3.1 cost terms)")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (timeline axis = virtual clock)")
		checkInv    = flag.Bool("check-invariants", false, "validate runtime invariants (clock monotonicity, byte symmetry, collective participation) and partition invariants after the run")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	fc, err := checkFlags(flagValues{
		refine: *refineFlag, recover: *recoverFlag, fault: *fault,
		trials: *trials, p: *p, workers: *workers, watchdog: *watchdog,
		scale: *scale, method: *method, retryBudget: *retryBudget,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalapart:", err)
		os.Exit(2)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalapart:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "scalapart:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memProf != "" {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "scalapart:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "scalapart:", err)
			}
		}
	}()
	if *list {
		for _, e := range gen.SuiteEntries() {
			fmt.Println(e.Name)
		}
		return
	}
	m := fc.method
	var rec *trace.Recorder
	if *phaseBreak || *traceOut != "" || *checkInv {
		if m.Simulated {
			rec = trace.New()
			fc.run.Model.Trace = rec
		} else if *phaseBreak || *traceOut != "" {
			fmt.Fprintf(os.Stderr, "scalapart: WARNING: -phase-breakdown/-trace need a simulated-runtime method; %s runs sequentially\n", m.Name)
		}
	}
	if fc.run.Recover.Policy != core.RecoverOff && m.Name != bench.MethodSP {
		fmt.Fprintf(os.Stderr, "scalapart: WARNING: -recover applies to the ScalaPart pipeline; %s runs without rollback recovery\n", m.Name)
	}
	if fc.run.Trials > 1 && m.Name != bench.MethodSP {
		fmt.Fprintf(os.Stderr, "scalapart: WARNING: -trials drives the ScalaPart evolutionary search; %s runs a single pass\n", m.Name)
	}
	if fc.run.FullCutRounds > 0 && m.Name != bench.MethodSP && m.Name != bench.MethodSPPG {
		fmt.Fprintf(os.Stderr, "scalapart: WARNING: -refine full applies to the geodesic pipelines; %s is unaffected\n", m.Name)
	}
	in, err := gen.Load(*file, *name, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalapart:", err)
		os.Exit(1)
	}
	g, coords := in.G, in.Coords
	fmt.Printf("graph: n=%d m=%d\n", g.NumVertices(), g.NumEdges())
	if *compress {
		plain := g.AdjacencyBytes()
		g = graph.Compress(g)
		comp := g.AdjacencyBytes()
		perEdge, ratio := 0.0, 0.0
		if m := g.NumEdges(); m > 0 {
			perEdge = float64(comp) / float64(m)
			ratio = 100 * float64(comp) / float64(plain)
		}
		fmt.Printf("compressed adjacency: %d bytes (%.2f B/edge, %.1f%% of plain %d)\n",
			comp, perEdge, ratio, plain)
	}

	if m.Coords && coords == nil {
		fmt.Println("computing sequential force-directed embedding (graph has no coordinates)...")
		coords = embed.SequentialLayout(g, embed.SeqOptions{Seed: *seed})
	}

	res, err := m.Run(g, coords, *p, *seed, fc.run)
	if res == nil {
		fmt.Fprintln(os.Stderr, "scalapart:", err)
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "scalapart: WARNING: parallel run failed: %v\n", err)
		fmt.Fprintf(os.Stderr, "scalapart: WARNING: retrying with the sequential baseline partitioner\n")
	} else if m.Name == bench.MethodSP {
		fmt.Printf("phases: coarsen %.4fs  embed %.4fs  partition %.4fs (strip %d vertices)\n",
			res.Times.Coarsen, res.Times.Embed, res.Times.Partition, res.StripSize)
	}
	if res.Recovery != nil {
		fmt.Println(res.Recovery)
		for _, r := range res.Recovery.Resumes {
			fmt.Printf("  resumed: %s\n", r)
		}
	}
	fmt.Printf("method=%s P=%d  cut=%d  imbalance=%.3f", m.Name, *p, res.Cut, res.Imbalance)
	if res.Times.Total > 0 {
		fmt.Printf("  modeled-time=%.4fs", res.Times.Total)
	}
	if res.Fallback {
		fmt.Printf("  [sequential fallback]")
	}
	fmt.Println()
	if *out != "" {
		if err := writeParts(*out, res.Part); err != nil {
			fmt.Fprintln(os.Stderr, "scalapart:", err)
			os.Exit(1)
		}
		fmt.Printf("partition written to %s\n", *out)
	}
	if rec != nil && res.Fallback {
		fmt.Fprintln(os.Stderr, "scalapart: WARNING: the traced parallel run failed; trace output covers the partial run, invariant checks use the fallback partition")
	}
	if rec != nil && *phaseBreak {
		fmt.Print(rec.Breakdown().Table())
	}
	if rec != nil && *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalapart:", err)
			os.Exit(1)
		}
		err = rec.ChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalapart:", err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	if *checkInv {
		failed := false
		if rec != nil && !res.Fallback {
			if err := rec.CheckInvariants(); err != nil {
				fmt.Fprintln(os.Stderr, "scalapart:", err)
				failed = true
			}
		}
		if err := core.CheckResult(g, res); err != nil {
			fmt.Fprintln(os.Stderr, "scalapart:", err)
			failed = true
		}
		if failed {
			os.Exit(1)
		}
		fmt.Println("invariants OK")
	}
}

// flagValues are the flag values checkFlags validates.
type flagValues struct {
	method, refine, recover, fault  string
	trials, p, workers, retryBudget int
	watchdog                        time.Duration
	scale                           float64
}

// flagConfig is what checkFlags derives from the flag values that
// flag.Parse accepts as strings and numbers but the run cannot take as
// is.
type flagConfig struct {
	method bench.Method
	run    bench.RunConfig // the default model with the watchdog window, fault plan and host width; recovery, trials, full-cut rounds
}

// checkFlags validates every flag value and flag combination before any
// graph is loaded, so a configuration that cannot run fails at once with
// one line instead of surfacing later as a rank failure or a panic.
func checkFlags(v flagValues) (flagConfig, error) {
	var cfg flagConfig
	var ok bool
	if cfg.method, ok = bench.LookupMethod(v.method); !ok {
		return cfg, fmt.Errorf("unknown -method %q (want %s)", v.method, strings.Join(bench.MethodNames(), ", "))
	}
	var err error
	if cfg.run, err = bench.ParseRunConfig(v.refine, v.trials, v.workers); err != nil {
		return cfg, err
	}
	if v.p < 1 {
		return cfg, fmt.Errorf("-p must be >= 1 (got %d)", v.p)
	}
	// A negative Model.Watchdog would switch deadlock detection off.
	if v.watchdog < 0 {
		return cfg, fmt.Errorf("-watchdog must not be negative (got %v)", v.watchdog)
	}
	cfg.run.Model.Watchdog = v.watchdog
	// The reliability layer would read a negative budget as unset and
	// silently use its default.
	if v.retryBudget < 0 {
		return cfg, fmt.Errorf("-retry-budget must not be negative (got %d)", v.retryBudget)
	}
	cfg.run.Recover.RetryBudget = v.retryBudget
	if err := gen.CheckScale(v.scale); err != nil {
		return cfg, fmt.Errorf("-scale: %v", err)
	}
	if cfg.run.Recover.Policy, err = core.ParseRecoveryPolicy(v.recover); err != nil {
		return cfg, err
	}
	if v.fault != "" {
		if cfg.run.Model.Faults, err = parseFaultPlan(v.fault); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// parseFaultPlan parses the -fault flag: comma-separated specs of the
// form "kill:R@E", "drop:R@E", "delay:R@E+SECS", or "trunc:R@E", where
// R is the rank and E the 0-based index of the rank's communication
// event the fault fires at.
func parseFaultPlan(spec string) (*mpi.FaultPlan, error) {
	plan := mpi.NewFaultPlan()
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		kind, rest, ok := strings.Cut(item, ":")
		if !ok {
			return nil, fmt.Errorf("fault %q: want KIND:RANK@EVENT", item)
		}
		delay := 0.0
		if kind == "delay" {
			var dstr string
			rest, dstr, ok = strings.Cut(rest, "+")
			if !ok {
				return nil, fmt.Errorf("fault %q: delay needs +SECS", item)
			}
			d, err := strconv.ParseFloat(dstr, 64)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault %q: bad delay %q", item, dstr)
			}
			delay = d
		}
		rstr, estr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("fault %q: want KIND:RANK@EVENT", item)
		}
		rank, err := strconv.Atoi(rstr)
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("fault %q: bad rank %q", item, rstr)
		}
		event, err := strconv.ParseInt(estr, 10, 64)
		if err != nil || event < 0 {
			return nil, fmt.Errorf("fault %q: bad event %q", item, estr)
		}
		switch kind {
		case "kill":
			plan.Kill(rank, event)
		case "drop":
			plan.Drop(rank, event)
		case "delay":
			plan.Delay(rank, event, delay)
		case "trunc":
			plan.Truncate(rank, event)
		default:
			return nil, fmt.Errorf("fault %q: unknown kind %q (kill|drop|delay|trunc)", item, kind)
		}
	}
	return plan, nil
}

func writeParts(path string, part []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for _, p := range part {
		fmt.Fprintln(w, p)
	}
	return w.Flush()
}
