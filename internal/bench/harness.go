// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation section on the synthetic suite,
// using the simulated runtime's virtual clocks as execution time. Runs
// are cached per (graph, method, rank count), so the whole suite sweep
// is computed once and shared by all tables and figures.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// Method names, as used throughout tables and figures.
const (
	MethodSP     = "ScalaPart"
	MethodSPPG   = "SP-PG7-NL"
	MethodPM     = "ParMetis"
	MethodPTS    = "Pt-Scotch"
	MethodRCB    = "RCB"
	MethodG30    = "G30"
	MethodG7     = "G7"
	MethodG7NL   = "G7-NL"
	MethodRCBSeq = "RCB-seq"
)

// Run is one cached (graph, method, P) outcome.
type Run struct {
	Graph       string
	Method      string
	P           int
	Cut         int64
	Imbalance   float64
	Time        float64 // modeled seconds (max over ranks); 0 for sequential baselines
	CommTime    float64
	WallSeconds float64         // host wall-clock spent computing the run
	PeakRSS     int64           // max heap+stack in-use bytes sampled during the run
	Messages    int64           // point-to-point messages, summed over ranks
	BytesSent   int64           // point-to-point payload bytes, summed over ranks
	Times       core.PhaseTimes // phase breakdown (ScalaPart runs)
	StripSize   int
	Fallback    bool // the parallel run failed; this is the sequential recovery result

	// Breakdown is the aggregated per-phase cost table of the run,
	// populated only when the harness runs with tracing on (h.Trace).
	Breakdown []trace.PhaseCost
}

type runKey struct {
	graph, method string
	p             int
	// env fingerprints every setting that can change a run's recorded
	// statistics, so two sweeps under different settings (worker pools,
	// fault plans, tracing, quality knobs) never share a cached Run.
	// See Harness.envKey.
	env string
}

// Harness caches graphs, force-directed layouts, and runs. All caches
// are singleflight, so Precompute can fan the sweep across a worker
// pool without ever duplicating a graph build, layout, or run.
type Harness struct {
	Scale float64 // suite scale; 1 = default bench sizes
	Ps    []int   // processor sweep
	Model mpi.Model
	Out   io.Writer // progress log; nil silences
	Trace bool      // record per-run traces and fill Run.Breakdown
	// Compress hands every run the suite graph in the delta/varint
	// compressed representation (graph.Compress). Modeled results are
	// bit-identical either way (the pipeline consumes adjacency through
	// graph.Cursor); only host wall clocks and memory footprints change.
	// Part of the cache fingerprint, and the graph cache is keyed by
	// representation, so it may be toggled between Gets.
	Compress bool
	// Recover configures rollback recovery for ScalaPart runs (policy
	// off keeps the historical fail-then-fallback behaviour). It is part
	// of the cache fingerprint, so recovered and plain sweeps never
	// share entries.
	Recover core.RecoverOptions
	// Trials > 1 runs ScalaPart with the evolutionary multi-trial
	// search (core.Options.Trials). Part of the cache fingerprint;
	// 0 and 1 both mean the single-pass pipeline and share entries.
	Trials int
	// FullCutRounds > 0 adds the full-cut boundary-FM pass to the
	// ScalaPart and SP-PG7-NL runs (geopart.ParallelConfig's field of
	// the same name). Part of the cache fingerprint.
	FullCutRounds int

	logMu   sync.Mutex
	graphs  cache[graphKey, *gen.Generated]
	layouts cache[string, []geometry.Vec2]
	runs    cache[runKey, *Run]
}

// graphKey names one cached suite graph build in one representation.
type graphKey struct {
	name       string
	compressed bool
}

// New returns a harness at the given scale with the given P sweep.
func New(scale float64, ps []int) *Harness {
	return &Harness{
		Scale: scale,
		Ps:    ps,
		Model: mpi.DefaultModel(),
	}
}

// DefaultPs is the paper's processor sweep, 1..1024 in powers of two.
func DefaultPs() []int {
	ps := make([]int, 0, 11)
	for p := 1; p <= 1024; p *= 2 {
		ps = append(ps, p)
	}
	return ps
}

// ParsePs parses a -ps processor sweep: comma-separated positive
// integers, spaces allowed around each. The empty spec is DefaultPs.
func ParsePs(spec string) ([]int, error) {
	if spec == "" {
		return DefaultPs(), nil
	}
	var ps []int
	for _, tok := range strings.Split(spec, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad processor count %q (want an integer >= 1)", tok)
		}
		ps = append(ps, v)
	}
	return ps, nil
}

func (h *Harness) logf(format string, args ...any) {
	if h.Out != nil {
		h.logMu.Lock()
		fmt.Fprintf(h.Out, format+"\n", args...)
		h.logMu.Unlock()
	}
}

// Graph returns (building and caching) a suite graph by name, in the
// representation h.Compress selects. A compressed graph wraps the
// cached plain build when there is one (graph.Compress shares its XAdj
// and VWgt); otherwise it is generated and compressed without keeping
// the plain adjacency alive.
func (h *Harness) Graph(name string) *gen.Generated {
	compress := h.Compress
	return h.graphs.get(graphKey{name, compress}, func() *gen.Generated {
		if compress {
			if plain, ok := h.graphs.lookup(graphKey{name: name}); ok {
				gg := *plain
				gg.G = graph.Compress(plain.G)
				return &gg
			}
		}
		for _, e := range gen.SuiteEntries() {
			if e.Name == name {
				h.logf("generating %s (scale %g)...", name, h.Scale)
				gg := e.Build(h.Scale)
				if compress {
					gg.G = graph.Compress(gg.G)
				}
				return gg
			}
		}
		panic("bench: unknown suite graph " + name)
	})
}

// SuiteNames returns the nine suite graph names in paper order.
func SuiteNames() []string {
	entries := gen.SuiteEntries()
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	return names
}

// huCoords returns (computing and caching) the sequential
// force-directed layout of a suite graph — the stand-in for the
// Mathematica embedding the paper gives to RCB and G30/G7.
func (h *Harness) huCoords(name string) []geometry.Vec2 {
	return h.layouts.get(name, func() []geometry.Vec2 {
		g := h.Graph(name)
		h.logf("sequential layout of %s (n=%d)...", name, g.G.NumVertices())
		return embed.SequentialLayout(g.G, embed.SeqOptions{Seed: seedOf(name), IterSmooth: 30})
	})
}

// seedOf derives a stable per-graph seed.
func seedOf(name string) int64 {
	var s int64 = 1469598103
	for _, b := range []byte(name) {
		s = s*1099511628211 + int64(b)
	}
	if s < 0 {
		s = -s
	}
	return s%100000 + 1
}

// Get computes (or retrieves) one run.
func (h *Harness) Get(graphName, method string, p int) *Run {
	key := runKey{graphName, method, p, h.envKey()}
	return h.runs.get(key, func() *Run {
		return h.compute(graphName, method, p)
	})
}

// envKey fingerprints the settings a run depends on beyond (graph,
// method, P): the model's effective host width (wall clocks), tracing
// (the Breakdown field), the compressed representation, recovery,
// trials and full-cut refinement (modeled results), and the fault plan
// (everything). Two Gets with different fingerprints compute
// independent runs instead of sharing a stale cache entry.
func (h *Harness) envKey() string {
	trials := h.Trials
	if trials < 1 {
		trials = 1
	}
	return fmt.Sprintf("w%d|trace%t|compress%t|recover:%s:%d|trials:%d|fullcut:%d|faults:%s",
		h.Model.ResolvedWorkers(), h.Trace, h.Compress,
		h.Recover.Policy, h.Recover.RetryBudget,
		trials, h.FullCutRounds, h.Model.Faults.Key())
}

// partitionConfig is SP-PG7-NL as the harness runs it.
func (h *Harness) partitionConfig() geopart.ParallelConfig {
	cfg := geopart.DefaultParallelConfig()
	cfg.FullCutRounds = h.FullCutRounds
	return cfg
}

// options are the ScalaPart options of a harness run under the given
// seed.
func (h *Harness) options(seed int64) core.Options {
	opt := core.DefaultOptions(seed)
	opt.Model = h.Model
	opt.Recover = h.Recover
	opt.Trials = h.Trials
	opt.Partition = h.partitionConfig()
	return opt
}

// paperModel is mpi.DefaultModel at the harness model's host width: the
// model of the experiments that run the paper's fixed configuration
// (Figure 2, the ablations) rather than the harness's settings.
func (h *Harness) paperModel() mpi.Model {
	m := mpi.DefaultModel()
	m.Workers = h.Model.Workers
	return m
}

// paperOptions are core.DefaultOptions under paperModel.
func (h *Harness) paperOptions(seed int64) core.Options {
	opt := core.DefaultOptions(seed)
	opt.Model = h.paperModel()
	return opt
}

// ParallelMethods lists the methods whose runs execute on the simulated
// runtime — the expensive part of the sweep and the part worth warming
// in parallel. Sequential baselines (G30/G7/G7-NL/RCB-seq) stay lazy.
func ParallelMethods() []string {
	return []string{MethodSP, MethodSPPG, MethodPM, MethodPTS, MethodRCB}
}

// Precompute warms the run cache for methods × suite graphs × the P
// sweep, running as many at once as the model's effective host width.
// Runs are independent and individually seeded, so execution order
// cannot change any result; the singleflight caches keep concurrent
// workers from duplicating shared graph builds and layouts. Table and
// figure assembly afterwards is pure lookup.
func (h *Harness) Precompute(methods []string) {
	type job struct {
		graph, method string
		p             int
	}
	var jobs []job
	for _, name := range SuiteNames() {
		for _, m := range methods {
			for _, p := range h.Ps {
				jobs = append(jobs, job{name, m, p})
			}
		}
	}
	runJobs(h.Model.ResolvedWorkers(), len(jobs), func(i int) { h.Get(jobs[i].graph, jobs[i].method, jobs[i].p) })
}

// runJobs calls job(i) for every i in [0, n) on the given number of
// goroutines, each taking the next index as it frees up, and returns
// when all calls have.
func runJobs(workers, n int, job func(i int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// fallbackRun completes a run whose parallel execution failed: the
// diagnostic is logged and the sequential baseline partitioner supplies
// the partition, clearly flagged so tables never silently mix degraded
// and healthy results.
func (h *Harness) fallbackRun(run *Run, g *gen.Generated, seed int64, runErr error) *Run {
	h.logf("  FAILED: %v", runErr)
	h.logf("  falling back to the sequential baseline partitioner")
	res, err := core.SequentialFallback(g.G, seed)
	if err != nil {
		panic("bench: " + err.Error())
	}
	run.Cut, run.Imbalance = res.Cut, res.Imbalance
	run.Fallback = true
	return run
}

// startPeakSampler starts a goroutine that samples the live Go memory
// footprint (heap + goroutine stacks in use — the portable proxy for
// resident set) every 50ms and returns a stop function reporting the
// peak observed, including one final sample at stop. Runs computed
// concurrently by Precompute share the process footprint, so the
// per-run number is an upper bound under a parallel warm and exact
// under a sequential sweep (the BENCH recording path).
func startPeakSampler() func() int64 {
	sample := func() int64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapInuse + ms.StackInuse)
	}
	peak := sample()
	done := make(chan struct{})
	result := make(chan int64, 1)
	go func() {
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				if v := sample(); v > peak {
					peak = v
				}
				result <- peak
				return
			case <-tick.C:
				if v := sample(); v > peak {
					peak = v
				}
			}
		}
	}()
	return func() int64 { close(done); return <-result }
}

// addStats folds per-rank runtime statistics into the run's totals.
func (run *Run) addStats(stats []mpi.RankStats) {
	for _, s := range stats {
		run.Messages += s.Messages
		run.BytesSent += s.BytesSent
	}
}

func (h *Harness) compute(graphName, method string, p int) *Run {
	g := h.Graph(graphName)
	seed := seedOf(graphName)
	run := &Run{Graph: graphName, Method: method, P: p}
	h.logf("run %-10s %-18s P=%-5d", method, graphName, p)
	start := time.Now()
	stopSampler := startPeakSampler()
	defer func() {
		run.PeakRSS = stopSampler()
		run.WallSeconds = time.Since(start).Seconds()
		h.logf("  %-10s %-18s P=%-5d modeled %.4gs  wall %.2fs", method, graphName, p, run.Time, run.WallSeconds)
	}()
	switch method {
	case MethodSP:
		opt := h.options(seed)
		var rec *trace.Recorder
		if h.Trace {
			rec = trace.New()
			opt.Model.Trace = rec
		}
		res, err := core.PartitionChecked(g.G, p, opt)
		if err != nil {
			return h.fallbackRun(run, g, seed, err)
		}
		run.Fallback = res.Fallback
		run.Cut, run.Imbalance = res.Cut, res.Imbalance
		run.Time, run.CommTime = res.Times.Total, res.Times.TotalComm
		run.Times = res.Times
		run.StripSize = res.StripSize
		run.addStats(res.Stats)
		if rec != nil {
			run.Breakdown = rec.Breakdown().Phases
		}
	case MethodSPPG:
		res, err := core.PartitionGeometricChecked(g.G, h.huCoords(graphName), p, h.partitionConfig(), h.Model)
		if err != nil {
			return h.fallbackRun(run, g, seed, err)
		}
		run.Cut, run.Imbalance = res.Cut, res.Imbalance
		run.Time, run.CommTime = res.Times.Total, res.Times.TotalComm
		run.StripSize = res.StripSize
		run.addStats(res.Stats)
	case MethodRCB:
		res, err := core.RCBParallelChecked(g.G, h.huCoords(graphName), p, h.Model)
		if err != nil {
			return h.fallbackRun(run, g, seed, err)
		}
		run.Cut, run.Imbalance = res.Cut, res.Imbalance
		run.Time, run.CommTime = res.Times.Total, res.Times.TotalComm
		run.addStats(res.Stats)
	case MethodPM, MethodPTS:
		cfg := baseline.ParMetisLike(seed)
		if method == MethodPTS {
			cfg = baseline.PtScotchLike(seed)
		}
		cfg.Model = h.Model
		res, err := baseline.PartitionChecked(g.G, p, cfg)
		if err != nil {
			return h.fallbackRun(run, g, seed, err)
		}
		run.Cut, run.Imbalance = res.Cut, res.Imbalance
		run.Time, run.CommTime = res.Total, res.Comm
		run.addStats(res.Stats)
	case MethodG30, MethodG7, MethodG7NL:
		var cfg geopart.Config
		switch method {
		case MethodG30:
			cfg = geopart.G30()
		case MethodG7:
			cfg = geopart.G7()
		default:
			cfg = geopart.G7NL()
		}
		cfg.Seed = seed
		_, st, err := geopart.Partition(g.G, h.huCoords(graphName), cfg)
		if err != nil {
			panic("bench: " + err.Error()) // harness-built coords always match
		}
		run.Cut, run.Imbalance = st.Cut, st.Imbalance
	case MethodRCBSeq:
		_, st, err := geopart.RCBBisect(g.G, h.huCoords(graphName))
		if err != nil {
			panic("bench: " + err.Error()) // harness-built coords always match
		}
		run.Cut, run.Imbalance = st.Cut, st.Imbalance
	default:
		panic("bench: unknown method " + method)
	}
	return run
}

// SPCuts returns ScalaPart's cut-sizes across the P sweep for a graph.
func (h *Harness) SPCuts(graphName string) []int64 {
	cuts := make([]int64, 0, len(h.Ps))
	for _, p := range h.Ps {
		cuts = append(cuts, h.Get(graphName, MethodSP, p).Cut)
	}
	return cuts
}

// CutRange returns the min and max cut of a parallel method across the
// P sweep.
func (h *Harness) CutRange(graphName, method string) (min, max int64) {
	min, max = -1, -1
	for _, p := range h.Ps {
		c := h.Get(graphName, method, p).Cut
		if min < 0 || c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	return min, max
}

// TotalTime sums a method's modeled time over all suite graphs at one
// P.
func (h *Harness) TotalTime(method string, p int) float64 {
	t := 0.0
	for _, name := range SuiteNames() {
		t += h.Get(name, method, p).Time
	}
	return t
}
