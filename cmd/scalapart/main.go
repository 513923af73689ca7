// Command scalapart partitions a graph into two parts with any of the
// partitioners in this repository and reports cut size, balance, and
// modeled parallel execution time.
//
// The graph comes either from a METIS file (-file) or from the built-in
// synthetic suite (-graph, -scale). Methods needing coordinates (RCB,
// G30/G7/G7-NL, SP-PG7-NL) use the graph's natural coordinates when
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

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/hostpar"
	"repro/internal/mpi"
	"repro/internal/trace"
)

func main() {
	var (
		file        = flag.String("file", "", "METIS graph file to partition")
		name        = flag.String("graph", "", "built-in suite graph name (see -list)")
		scale       = flag.Float64("scale", 0.25, "size scale for built-in graphs")
		method      = flag.String("method", "ScalaPart", "ScalaPart | ParMetis | Pt-Scotch | RCB | SP-PG7-NL | G30 | G7 | G7-NL")
		compress    = flag.Bool("compress", false, "hold the graph in the delta/varint compressed adjacency representation (identical results, smaller footprint); with -bench-json, sweep on compressed graphs")
		p           = flag.Int("p", 16, "simulated processor count")
		seed        = flag.Int64("seed", 42, "random seed")
		out         = flag.String("out", "", "write per-vertex part ids to this file")
		list        = flag.Bool("list", false, "list built-in graphs and exit")
		fault       = flag.String("fault", "", "inject faults: comma-separated kill:R@E | drop:R@E | delay:R@E+SECS | trunc:R@E")
		recoverFlag = flag.String("recover", "off", "rank-failure recovery policy for ScalaPart: off | respawn | shrink")
		retryBudget = flag.Int("retry-budget", 0, "max retransmissions per message under -recover (0 = default budget)")
		watchdog    = flag.Duration("watchdog", 0, "deadlock watchdog stall window (0 = built-in default of 2s; must not be negative)")
		benchJSON   = flag.String("bench-json", "", "sweep ScalaPart over the suite and write perf-trajectory JSON to this file, then exit")
		psFlag      = flag.String("ps", "", "processor sweep for -bench-json (default 1,2,...,1024)")
		refineFlag  = flag.String("refine", "off", "extra refinement beyond the always-on strip FM: off (historical pipeline) | full (full-cut distributed boundary FM)")
		trials      = flag.Int("trials", 1, "evolutionary search width for ScalaPart: run the embed+partition tail N times with decorrelated seeds and combine the two best bisections (1 = single pass)")
		workers     = flag.Int("workers", 0, "host worker pool size for the fork-join coarsening/embedding kernels (0 = one per core)")
		phaseBreak  = flag.Bool("phase-breakdown", false, "print the per-phase virtual-time and byte-volume breakdown (Section 3.1 cost terms); with -bench-json, embed it per run")
		traceOut    = flag.String("trace", "", "write a Chrome trace-event JSON of the run to this file (timeline axis = virtual clock)")
		checkInv    = flag.Bool("check-invariants", false, "validate runtime invariants (clock monotonicity, byte symmetry, collective participation) and partition invariants after the run")
		cpuProf     = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf     = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	fc, err := checkFlags(flagValues{
		refine: *refineFlag, recover: *recoverFlag, fault: *fault,
		trials: *trials, p: *p, workers: *workers, watchdog: *watchdog,
		scale: *scale, ps: *psFlag,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalapart:", err)
		os.Exit(2)
	}
	hostpar.SetWorkers(*workers)
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
	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *scale, *phaseBreak, *compress, *trials, fc); err != nil {
			fmt.Fprintln(os.Stderr, "scalapart:", err)
			os.Exit(1)
		}
		fmt.Printf("perf trajectory written to %s\n", *benchJSON)
		return
	}
	model := fc.model
	if *list {
		for _, e := range gen.SuiteEntries() {
			fmt.Println(e.Name)
		}
		return
	}
	// Methods that execute on the simulated runtime can be traced; the
	// purely sequential geometric baselines have no virtual clocks.
	simulated := map[string]bool{"ScalaPart": true, "SP-PG7-NL": true, "RCB": true, "ParMetis": true, "Pt-Scotch": true}
	var rec *trace.Recorder
	if *phaseBreak || *traceOut != "" || *checkInv {
		if simulated[*method] {
			rec = trace.New()
			model.Trace = rec
		} else if *phaseBreak || *traceOut != "" {
			fmt.Fprintf(os.Stderr, "scalapart: WARNING: -phase-breakdown/-trace need a simulated-runtime method; %s runs sequentially\n", *method)
		}
	}
	if fc.policy != core.RecoverOff && *method != "ScalaPart" {
		fmt.Fprintf(os.Stderr, "scalapart: WARNING: -recover applies to the ScalaPart pipeline; %s runs without rollback recovery\n", *method)
	}
	if *trials > 1 && *method != "ScalaPart" {
		fmt.Fprintf(os.Stderr, "scalapart: WARNING: -trials drives the ScalaPart evolutionary search; %s runs a single pass\n", *method)
	}
	if *refineFlag == "full" && *method != "ScalaPart" && *method != "SP-PG7-NL" {
		fmt.Fprintf(os.Stderr, "scalapart: WARNING: -refine full applies to the geodesic pipelines; %s is unaffected\n", *method)
	}
	g, coords, err := loadGraph(*file, *name, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "scalapart:", err)
		os.Exit(1)
	}
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

	needCoords := map[string]bool{"RCB": true, "SP-PG7-NL": true, "G30": true, "G7": true, "G7-NL": true}
	if needCoords[*method] && coords == nil {
		fmt.Println("computing sequential force-directed embedding (graph has no coordinates)...")
		coords = embed.SequentialLayout(g, embed.SeqOptions{Seed: *seed})
	}

	var part []int32
	var cut int64
	var timeS, imb float64
	fallback := false
	// retrySequential retries a failed parallel run with the sequential
	// baseline partitioner, printing the rank diagnostic first. The
	// fallback result is clearly flagged; a healthy run is never touched.
	retrySequential := func(runErr error) *core.Result {
		fmt.Fprintf(os.Stderr, "scalapart: WARNING: parallel run failed: %v\n", runErr)
		fmt.Fprintf(os.Stderr, "scalapart: WARNING: retrying with the sequential baseline partitioner\n")
		res, err := core.SequentialFallback(g, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalapart:", err)
			os.Exit(1)
		}
		fallback = true
		return res
	}
	switch *method {
	case "ScalaPart":
		opt := core.DefaultOptions(*seed)
		opt.Model = model
		opt.Partition.FullCutRounds = fc.fullCutRounds
		opt.Trials = *trials
		opt.Recover = core.RecoverOptions{Policy: fc.policy, RetryBudget: *retryBudget}
		res, runErr := core.PartitionChecked(g, *p, opt)
		if runErr != nil {
			res = retrySequential(runErr)
		} else {
			fmt.Printf("phases: coarsen %.4fs  embed %.4fs  partition %.4fs (strip %d vertices)\n",
				res.Times.Coarsen, res.Times.Embed, res.Times.Partition, res.StripSize)
		}
		if res.Recovery != nil {
			fmt.Println(res.Recovery)
			for _, r := range res.Recovery.Resumes {
				fmt.Printf("  resumed: %s\n", r)
			}
		}
		fallback = fallback || res.Fallback
		part, cut, imb, timeS = res.Part, res.Cut, res.Imbalance, res.Times.Total
	case "SP-PG7-NL":
		cfg := geopart.DefaultParallelConfig()
		cfg.FullCutRounds = fc.fullCutRounds
		res, runErr := core.PartitionGeometricChecked(g, coords, *p, cfg, model)
		if runErr != nil {
			res = retrySequential(runErr)
		}
		part, cut, imb, timeS = res.Part, res.Cut, res.Imbalance, res.Times.Total
	case "RCB":
		res, runErr := core.RCBParallelChecked(g, coords, *p, model)
		if runErr != nil {
			res = retrySequential(runErr)
		}
		part, cut, imb, timeS = res.Part, res.Cut, res.Imbalance, res.Times.Total
	case "ParMetis", "Pt-Scotch":
		cfg := baseline.ParMetisLike(*seed)
		if *method == "Pt-Scotch" {
			cfg = baseline.PtScotchLike(*seed)
		}
		cfg.Model = model
		res, runErr := baseline.PartitionChecked(g, *p, cfg)
		if runErr != nil {
			cres := retrySequential(runErr)
			part, cut, imb, timeS = cres.Part, cres.Cut, cres.Imbalance, cres.Times.Total
		} else {
			part, cut, imb, timeS = res.Part, res.Cut, res.Imbalance, res.Total
		}
	case "G30", "G7", "G7-NL":
		cfg := geopart.G30()
		if *method == "G7" {
			cfg = geopart.G7()
		}
		if *method == "G7-NL" {
			cfg = geopart.G7NL()
		}
		cfg.Seed = *seed
		var st geopart.Stats
		part, st, err = geopart.Partition(g, coords, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "scalapart:", err)
			os.Exit(1)
		}
		cut, imb = st.Cut, st.Imbalance
	default:
		fmt.Fprintf(os.Stderr, "scalapart: unknown method %q\n", *method)
		os.Exit(1)
	}
	fmt.Printf("method=%s P=%d  cut=%d  imbalance=%.3f", *method, *p, cut, imb)
	if timeS > 0 {
		fmt.Printf("  modeled-time=%.4fs", timeS)
	}
	if fallback {
		fmt.Printf("  [sequential fallback]")
	}
	fmt.Println()
	if *out != "" {
		if err := writeParts(*out, part); err != nil {
			fmt.Fprintln(os.Stderr, "scalapart:", err)
			os.Exit(1)
		}
		fmt.Printf("partition written to %s\n", *out)
	}
	if rec != nil && fallback {
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
		if rec != nil && !fallback {
			if err := rec.CheckInvariants(); err != nil {
				fmt.Fprintln(os.Stderr, "scalapart:", err)
				failed = true
			}
		}
		if err := core.CheckPartition(g, part, cut, imb); err != nil {
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
	refine, recover, fault, ps string
	trials, p, workers         int
	watchdog                   time.Duration
	scale                      float64
}

// flagConfig is what checkFlags derives from the flag values that
// flag.Parse accepts as strings and numbers but the run cannot take as
// is.
type flagConfig struct {
	model         mpi.Model // default model with the watchdog window and fault plan
	fullCutRounds int
	policy        core.RecoveryPolicy
	ps            []int // the -bench-json processor sweep
}

// checkFlags validates every flag value and flag combination before any
// graph is loaded, so a configuration that cannot run fails at once with
// one line instead of surfacing later as a rank failure or a panic.
func checkFlags(v flagValues) (flagConfig, error) {
	cfg := flagConfig{model: mpi.DefaultModel()}
	var err error
	switch v.refine {
	case "off":
	case "full":
		cfg.fullCutRounds = geopart.FullRefineRounds
	default:
		return cfg, fmt.Errorf("unknown -refine mode %q (want off or full)", v.refine)
	}
	if v.trials < 1 {
		return cfg, fmt.Errorf("-trials must be >= 1 (got %d)", v.trials)
	}
	if v.p < 1 {
		return cfg, fmt.Errorf("-p must be >= 1 (got %d)", v.p)
	}
	// hostpar.SetWorkers would read a negative count as "one per core".
	if v.workers < 0 {
		return cfg, fmt.Errorf("-workers must not be negative (got %d)", v.workers)
	}
	// A negative Model.Watchdog would switch deadlock detection off.
	if v.watchdog < 0 {
		return cfg, fmt.Errorf("-watchdog must not be negative (got %v)", v.watchdog)
	}
	cfg.model.Watchdog = v.watchdog
	if err := gen.CheckScale(v.scale); err != nil {
		return cfg, fmt.Errorf("-scale: %v", err)
	}
	if cfg.ps, err = bench.ParsePs(v.ps); err != nil {
		return cfg, fmt.Errorf("-ps: %v", err)
	}
	if cfg.policy, err = core.ParseRecoveryPolicy(v.recover); err != nil {
		return cfg, err
	}
	if v.fault != "" {
		if cfg.model.Faults, err = parseFaultPlan(v.fault); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// writeBenchJSON runs the ScalaPart suite sweep at the given scale and
// writes the BENCH perf-trajectory file (modeled time, comm time,
// message counts, and host wall-clock per run). With breakdown set the
// sweep runs traced and each row carries its phase_breakdown array;
// with compress set the suite graphs are held in the delta/varint
// compressed representation (modeled fields are bit-identical either
// way, and each row records compressed/bytes_per_edge/peak_rss). The
// sweep takes the processor sweep, watchdog window and full-cut setting
// of fc, but not its fault plan.
func writeBenchJSON(path string, scale float64, breakdown, compress bool, trials int, fc flagConfig) error {
	h := bench.New(scale, fc.ps)
	h.Model.Watchdog = fc.model.Watchdog
	h.FullCutRounds = fc.fullCutRounds
	h.Trace = breakdown
	h.Compress = compress
	h.Trials = trials
	h.Out = os.Stderr
	data, err := h.BenchJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
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

func loadGraph(file, name string, scale float64) (*graph.Graph, []geometry.Vec2, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		var g *graph.Graph
		if strings.HasSuffix(file, ".mtx") {
			g, err = graph.ReadMatrixMarket(f)
		} else {
			g, err = graph.ReadMETIS(f)
		}
		return g, nil, err
	}
	if name == "" {
		name = "delaunay_n20"
	}
	for _, e := range gen.SuiteEntries() {
		if e.Name == name {
			gg := e.Build(scale)
			return gg.G, gg.Coords, nil
		}
	}
	return nil, nil, fmt.Errorf("unknown graph %q (try -list)", name)
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
