package bench

import (
	"fmt"
	"slices"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/mpi"
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

// RunConfig is what a method's run reads beyond the graph, its
// coordinates, P and the seed.
type RunConfig struct {
	Model mpi.Model
	// Recover configures rollback recovery for ScalaPart runs (policy
	// off keeps the historical fail-then-fallback behaviour).
	Recover core.RecoverOptions
	// Trials > 1 runs ScalaPart with the evolutionary multi-trial
	// search (core.Options.Trials); 0 and 1 both mean the single-pass
	// pipeline.
	Trials int
	// FullCutRounds > 0 adds the full-cut boundary-FM pass to the
	// ScalaPart and SP-PG7-NL runs (geopart.ParallelConfig's field of
	// the same name).
	FullCutRounds int
}

// ParseRunConfig checks the -refine, -trials and -workers flag values
// the command-line tools share and returns the run configuration they
// select on the default model.
func ParseRunConfig(refine string, trials, workers int) (RunConfig, error) {
	c := RunConfig{Model: mpi.DefaultModel(), Trials: trials}
	switch refine {
	case "off":
	case "full":
		c.FullCutRounds = geopart.FullRefineRounds
	default:
		return c, fmt.Errorf("unknown -refine mode %q (want off or full)", refine)
	}
	if trials < 1 {
		return c, fmt.Errorf("-trials must be >= 1 (got %d)", trials)
	}
	// The run entry points reject a negative Model.Workers, but only
	// after the graph is built.
	if workers < 0 {
		return c, fmt.Errorf("-workers must not be negative (got %d)", workers)
	}
	c.Model.Workers = workers
	return c, nil
}

// partitionConfig is SP-PG7-NL under c.
func (c RunConfig) partitionConfig() geopart.ParallelConfig {
	cfg := geopart.DefaultParallelConfig()
	cfg.FullCutRounds = c.FullCutRounds
	return cfg
}

// options are the ScalaPart options of a run under c and the given
// seed.
func (c RunConfig) options(seed int64) core.Options {
	opt := core.DefaultOptions(seed)
	opt.Model = c.Model
	opt.Recover = c.Recover
	opt.Trials = c.Trials
	opt.Partition = c.partitionConfig()
	return opt
}

// Method is one partitioner of the paper's evaluation.
type Method struct {
	Name string
	// Simulated methods run on the simulated runtime: they have virtual
	// clocks to trace, and a failed run falls back to
	// core.SequentialFallback.
	Simulated bool
	// Coords methods partition by vertex coordinates, which the caller
	// supplies.
	Coords bool
	run    runFunc
}

// runFunc partitions g on p ranks under c; coords is nil for methods
// that need none.
type runFunc func(g *graph.Graph, coords []geometry.Vec2, p int, seed int64, c RunConfig) (*core.Result, error)

// methods is the method table, in the order of the Method constants.
var methods = []Method{
	{Name: MethodSP, Simulated: true, run: func(g *graph.Graph, _ []geometry.Vec2, p int, seed int64, c RunConfig) (*core.Result, error) {
		return core.PartitionChecked(g, p, c.options(seed))
	}},
	{Name: MethodSPPG, Simulated: true, Coords: true, run: func(g *graph.Graph, coords []geometry.Vec2, p int, _ int64, c RunConfig) (*core.Result, error) {
		return core.PartitionGeometricChecked(g, coords, p, c.partitionConfig(), c.Model)
	}},
	{Name: MethodPM, Simulated: true, run: baselineRun(baseline.ParMetisLike)},
	{Name: MethodPTS, Simulated: true, run: baselineRun(baseline.PtScotchLike)},
	{Name: MethodRCB, Simulated: true, Coords: true, run: func(g *graph.Graph, coords []geometry.Vec2, p int, _ int64, c RunConfig) (*core.Result, error) {
		return core.RCBParallelChecked(g, coords, p, c.Model)
	}},
	{Name: MethodG30, Coords: true, run: geometricRun(geopart.G30)},
	{Name: MethodG7, Coords: true, run: geometricRun(geopart.G7)},
	{Name: MethodG7NL, Coords: true, run: geometricRun(geopart.G7NL)},
	{Name: MethodRCBSeq, Coords: true, run: func(g *graph.Graph, coords []geometry.Vec2, _ int, _ int64, _ RunConfig) (*core.Result, error) {
		return sequentialResult(geopart.RCBBisect(g, coords))
	}},
}

// baselineRun runs the multilevel baseline that config selects.
func baselineRun(config func(seed int64) baseline.Config) runFunc {
	return func(g *graph.Graph, _ []geometry.Vec2, p int, seed int64, c RunConfig) (*core.Result, error) {
		cfg := config(seed)
		cfg.Model = c.Model
		return core.BaselineChecked(g, p, cfg)
	}
}

// geometricRun runs the sequential geometric mesh partitioner that
// config selects.
func geometricRun(config func() geopart.Config) runFunc {
	return func(g *graph.Graph, coords []geometry.Vec2, _ int, seed int64, _ RunConfig) (*core.Result, error) {
		cfg := config()
		cfg.Seed = seed
		return sequentialResult(geopart.Partition(g, coords, cfg))
	}
}

// sequentialResult reports a sequential geometric partitioner's outcome
// as a Result: one rank and no modeled time.
func sequentialResult(part []int32, st geopart.Stats, err error) (*core.Result, error) {
	if err != nil {
		return nil, err
	}
	return &core.Result{Part: part, Cut: st.Cut, Imbalance: st.Imbalance, P: 1}, nil
}

// LookupMethod returns the table entry of the named method.
func LookupMethod(name string) (Method, bool) {
	i := slices.IndexFunc(methods, func(m Method) bool { return m.Name == name })
	if i < 0 {
		return Method{}, false
	}
	return methods[i], true
}

// MethodNames lists the table's method names in table order.
func MethodNames() []string {
	names := make([]string, len(methods))
	for i, m := range methods {
		names[i] = m.Name
	}
	return names
}

// ParallelMethods lists the methods whose runs execute on the simulated
// runtime — the expensive part of the sweep and the part worth warming
// in parallel. Sequential baselines (G30/G7/G7-NL/RCB-seq) stay lazy.
func ParallelMethods() []string {
	var names []string
	for _, m := range methods {
		if m.Simulated {
			names = append(names, m.Name)
		}
	}
	return names
}

// Run partitions g with m on p ranks under c. A failed simulated run
// returns core.SequentialFallback's result, flagged Fallback, together
// with the run's error, so the caller can report the failure and still
// use the partition; only when the fallback fails too is the result
// nil. A failed sequential run returns only its error.
func (m Method) Run(g *graph.Graph, coords []geometry.Vec2, p int, seed int64, c RunConfig) (*core.Result, error) {
	res, err := m.run(g, coords, p, seed, c)
	if err == nil || !m.Simulated {
		return res, err
	}
	fb, ferr := core.SequentialFallback(g, seed)
	if ferr != nil {
		return nil, fmt.Errorf("%w; %w", err, ferr)
	}
	return fb, err
}
