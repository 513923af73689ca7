package core

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trace"
)

// digestGolden holds the digest chain of every pipeline input.
const digestGolden = "pipeline_digests.txt"

// The seven bit-identity guards; each host setting names the one that
// runs it.
const (
	replayGuard     = "TestReplayModesBitIdentical"
	hierarchyGuard  = "TestHierarchyBitIdentical"
	highPGuard      = "TestHighPEnginesBitIdentical"
	compressedGuard = "TestCompressedPipelineBitIdentical"
	batchingGuard   = "TestBatchingBitIdentical"
	tracingGuard    = "TestTracingKeepsPipelineBitIdentical"
	recoveryGuard   = "TestRecoveryZeroFaultsBitIdentical"
)

// hostSetting is one way to run a pipeline input on the host; none may
// move a modeled bit. Zero workers or procs keep the process default.
type hostSetting struct {
	name           string
	guard          string // the test that runs it
	workers, procs int    // Model.Workers, GOMAXPROCS
	compress       bool
	traced         bool
	recover        bool // respawn recovery armed, no fault planned
}

// pipelineInput is one set of pipeline inputs: a side×side grid on p
// ranks and the options. Its key names its chain in the golden.
type pipelineInput struct {
	graph    string
	side, p  int
	seed     int64
	trials   int
	fullCut  bool
	settings []hostSetting
}

func (in pipelineInput) key() string { return fmt.Sprintf("%s/P%d", in.graph, in.p) }

// pipelineInputs is the bit-identity table: every configuration of the
// seven guards, each run once. Each input's first setting is traced, so
// that -update-golden records its whole chain.
func pipelineInputs() []pipelineInput {
	// The run's width over {1, 2, 8} on the plain and the compressed
	// graph, and runtime threads over {1, 2, 4}: one thread steps the
	// rank goroutines strictly one at a time, and with one worker only
	// their interleaving varies. GOMAXPROCS is also the width of the
	// hierarchy construction outside the world, so the compressed rows
	// set it equal to their run's width and compress and coarsen at
	// {1, 2, 8} too; grid96 is large enough that construction forks
	// (contraction chunks >= 1024 vertices, builder >= 4096 records) on
	// the finer levels.
	engines := []hostSetting{
		{name: "w1-procs1-traced", guard: replayGuard, workers: 1, procs: 1, traced: true},
		{name: "w1-procs4", guard: replayGuard, workers: 1, procs: 4},
		{name: "w2-procs2", guard: hierarchyGuard, workers: 2, procs: 2},
		{name: "w8-procs4", guard: highPGuard, workers: 8, procs: 4},
		{name: "compressed-w1", guard: compressedGuard, workers: 1, procs: 1, compress: true},
		{name: "compressed-w2", guard: compressedGuard, workers: 2, procs: 2, compress: true},
		{name: "compressed-w8", guard: compressedGuard, workers: 8, procs: 8, compress: true},
	}
	// At the largest communicators, eight workers on four threads engage
	// the collective finisher's chunked scans and the pending-ring growth
	// under arrival orders one thread cannot produce. The golden,
	// recorded from one worker on one thread, is the reference.
	highP := []hostSetting{{name: "w8-procs4-traced", guard: highPGuard, workers: 8, procs: 4, traced: true}}
	// Eight workers share the geometric partitioner's derived sample,
	// candidates and gathered records across ranks; GOMAXPROCS follows
	// the width, as in the compressed rows.
	fullCut := []hostSetting{
		{name: "w1-traced", guard: batchingGuard, workers: 1, procs: 1, traced: true},
		{name: "w8", guard: batchingGuard, workers: 8, procs: 8},
	}
	// A recorder, or recovery armed with no fault, is bookkeeping that
	// no modeled number may see.
	traced := hostSetting{name: "traced", guard: tracingGuard, traced: true}
	untraced := hostSetting{name: "untraced", guard: tracingGuard}
	armed := hostSetting{name: "recover", guard: recoveryGuard, recover: true}
	tracedTrials := hostSetting{name: "traced", guard: recoveryGuard, traced: true}

	var in []pipelineInput
	for _, p := range []int{1, 4, 16, 64} {
		in = append(in, pipelineInput{"grid96-s42", 96, p, 42, 0, false, engines})
	}
	in = append(in, pipelineInput{"grid160-s42", 160, 256, 42, 0, false, highP},
		pipelineInput{"grid256-s42", 256, 1024, 42, 0, false, highP})
	for _, p := range []int{1, 4, 16, 64} {
		in = append(in, pipelineInput{"grid40-s42-fullcut", 40, p, 42, 0, true, fullCut},
			pipelineInput{"grid32-s3", 32, p, 3, 0, false, []hostSetting{traced, untraced, armed}})
	}
	for _, p := range []int{1, 4, 16} {
		in = append(in, pipelineInput{"grid32-s3-trials2", 32, p, 3, 2, false, []hostSetting{tracedTrials, armed}})
	}
	return in
}

// link is one entry of a digest chain: a phase boundary and the digest
// of it and every boundary before it, or "final" and the result's.
type link struct {
	phase  string
	digest uint64
}

// phaseChain hashes every rank's clock, comm time and sent bytes at each
// SetPhase boundary of rec's run and at its end ("end"), chaining each
// link onto those before it. A phase a rank entered k > 0 times before
// is keyed "name#k"; keys come in the order ranks 0, 1, ... first reach
// them, and a link covers the ranks that reach it. fmt prints each
// float64 in its shortest exact form.
func phaseChain(rec *trace.Recorder) []link {
	var order []string
	at := map[string][]string{}
	for _, rt := range rec.Ranks() {
		seen := map[string]int{}
		for _, e := range rt.Events() {
			key := e.Op
			switch e.Kind {
			case trace.KindPhase:
			case trace.KindEnd:
				key = "end"
			default:
				continue
			}
			if seen[key]++; seen[key] > 1 {
				key += "#" + strconv.Itoa(seen[key]-1)
			}
			if at[key] == nil {
				order = append(order, key)
			}
			at[key] = append(at[key], fmt.Sprint(rt.Rank(), e.Start, e.Comm, e.Bytes))
		}
	}
	h := fnv.New64a()
	chain := make([]link, len(order))
	for i, key := range order {
		fmt.Fprint(h, key, at[key])
		chain[i] = link{key, h.Sum64()}
	}
	return chain
}

// runDigests runs one input under one host setting, traced or not, and
// returns its chain: a link per phase boundary when traced, then the
// final link.
func runDigests(t *testing.T, g *graph.Graph, in pipelineInput, hs hostSetting, traced bool) []link {
	t.Helper()
	if hs.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(hs.procs))
	}
	if hs.compress {
		g = graph.Compress(g)
	}
	opt := DefaultOptions(in.seed)
	opt.Model.Workers = hs.workers
	opt.Trials = in.trials
	if in.fullCut {
		opt = withFullCut(opt)
	}
	if hs.recover {
		opt.Recover = RecoverOptions{Policy: RecoverRespawn}
	}
	rec := trace.New()
	if traced {
		opt.Model.Trace = rec
	}
	res := mustPartition(t, g, in.p, opt)
	if r := res.Recovery; hs.recover != (r != nil) || r != nil && (r.Attempts != 1 || r.FinalP != in.p) {
		t.Errorf("recovery armed: %v; got recovery stats %+v, want one attempt at P=%d when armed, none otherwise", hs.recover, r, in.p)
	}
	return append(phaseChain(rec), finalLink(res))
}

// finalLink hashes all a run returns but its recovery summary.
func finalLink(res *Result) link {
	h := fnv.New64a()
	fmt.Fprint(h, res.P, res.Cut, res.CutBefore, res.Imbalance, res.StripSize, res.Fallback, res.Times, res.Part, res.Stats)
	return link{"final", h.Sum64()}
}

// firstDivergence returns the first link of got that differs from the
// golden chain want, with a description, or "" when they agree. An
// untraced run's chain is its final link alone, compared with the
// golden's.
func firstDivergence(got, want []link) (phase, msg string) {
	if len(want) == 0 {
		return "final", "the golden has no chain for this input"
	}
	if len(got) == 1 {
		got = append(want[:len(want)-1:len(want)-1], got[0])
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(want):
			return got[i].phase, "the golden has no such phase boundary"
		case i >= len(got) || got[i].phase != want[i].phase:
			return want[i].phase, "the run does not reach this phase boundary here"
		case got[i].digest == want[i].digest:
			continue
		case want[i].phase == "final":
			return "final", "the result differs: cut, imbalance, phase times, partition or rank stats"
		case i == 0:
			return want[i].phase, "some rank's clock, comm time or sent bytes differ"
		}
		return want[i].phase, fmt.Sprintf("some rank's clock, comm time or sent bytes differ, so the drift was charged in or before phase %q", want[i-1].phase)
	}
	return "", ""
}

// parseDigestGolden reads "input phase digest" lines, skipping '#'
// comments.
func parseDigestGolden(text string) (map[string][]link, error) {
	chains := map[string][]link{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || strings.HasPrefix(f[0], "#") {
			continue
		}
		d, err := strconv.ParseUint(f[len(f)-1], 16, 64)
		if len(f) != 3 || err != nil {
			return nil, fmt.Errorf("malformed golden line %q", sc.Text())
		}
		chains[f[0]] = append(chains[f[0]], link{f[1], d})
	}
	return chains, sc.Err()
}

// readDigestGolden returns the committed chains and their text.
func readDigestGolden(t *testing.T) (map[string][]link, string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", digestGolden))
	if err != nil && !(os.IsNotExist(err) && *updateGolden) {
		t.Fatal(err)
	}
	chains, err := parseDigestGolden(string(raw))
	if err != nil {
		t.Fatal(err)
	}
	return chains, string(raw)
}

// recordedChains holds the chains that -update-golden recorded in this
// process, so that a guard compares its settings with a chain another
// guard recorded.
var recordedChains = map[string][]link{}

// checkPipelineGuard runs, once each, the configurations of the table
// whose setting names t's test as their guard, grouped by P as
// "P<p>/<graph>/<setting>", and compares each with its input's
// committed chain: a traced run link by link, naming the first phase
// boundary that differs; an untraced run by its final link, re-run
// traced on a mismatch to name the phase. P > 64 is skipped under
// -short. With -update-golden, each input's first setting records the
// chain and the input's other settings are compared with it, so the
// guards must run together (-run BitIdentical) and the golden is
// rewritten from every input's chain.
func checkPipelineGuard(t *testing.T) {
	guard := t.Name()
	golden, _ := readDigestGolden(t)
	for k, chain := range recordedChains {
		golden[k] = chain
	}
	var ps []int
	byP := map[int][]pipelineInput{}
	for _, in := range pipelineInputs() {
		for _, hs := range in.settings {
			if hs.guard == guard {
				if byP[in.p] == nil {
					ps = append(ps, in.p)
				}
				byP[in.p] = append(byP[in.p], in)
				break
			}
		}
	}
	if len(ps) == 0 {
		t.Fatalf("no configuration of the table names %s as its guard", guard)
	}
	grids := map[int]*graph.Graph{}
	for _, p := range ps {
		if p > 64 && testing.Short() {
			continue
		}
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			for _, in := range byP[p] {
				if grids[in.side] == nil {
					grids[in.side] = gen.Grid2D(in.side, in.side).G
				}
				for i, hs := range in.settings {
					if hs.guard != guard {
						continue
					}
					t.Run(in.graph+"/"+hs.name, func(t *testing.T) {
						got := runDigests(t, grids[in.side], in, hs, hs.traced)
						if *updateGolden && i == 0 {
							golden[in.key()], recordedChains[in.key()] = got, got
							return
						}
						if *updateGolden && recordedChains[in.key()] == nil {
							t.Fatalf("%s records %s: run it with -update-golden too", in.settings[0].guard, in.key())
						}
						phase, msg := firstDivergence(got, golden[in.key()])
						if phase == "final" && !hs.traced {
							phase, msg = firstDivergence(runDigests(t, grids[in.side], in, hs, true), golden[in.key()])
							msg = "final digest differs; traced re-run: " + msg
						}
						if phase != "" {
							t.Errorf("diverged from testdata/%s at %q: %s", digestGolden, phase, msg)
						}
					})
				}
			}
		})
	}
	if *updateGolden {
		var out strings.Builder
		out.WriteString("# Digest chains of the pipeline bit-identity guards (bitidentity_test.go): input, phase boundary, digest.\n")
		for _, in := range pipelineInputs() {
			for _, l := range golden[in.key()] {
				fmt.Fprintf(&out, "%s %s %016x\n", in.key(), l.phase, l.digest)
			}
		}
		checkGolden(t, digestGolden, []byte(out.String()))
	}
}

// The seven guards below share one table, one runner and one golden
// recorded from one worker on one thread: no host setting may move a bit
// of the cut, partition, per-rank clocks or traffic. Declared in this
// order, each input's recording setting runs before those compared
// with it.

// TestReplayModesBitIdentical: rank goroutines interleave as the Go
// runtime pleases; one worker on one runtime thread (which records the
// golden) and on four must agree. Two threads run in TestHierarchyBitIdentical.
func TestReplayModesBitIdentical(t *testing.T) { checkPipelineGuard(t) }

// TestHierarchyBitIdentical: the fork-join coarsening and embedding
// kernels on two workers (eight in TestHighPEnginesBitIdentical); their
// single-threaded oracles live in the coarsen and graph tests.
func TestHierarchyBitIdentical(t *testing.T) { checkPipelineGuard(t) }

// TestHighPEnginesBitIdentical: eight workers on four threads, so ranks
// reach each rendezvous in another order and the collective finisher
// chunks its scans, at P up to 1024 (P > 64 skipped under -short).
func TestHighPEnginesBitIdentical(t *testing.T) { checkPipelineGuard(t) }

// TestCompressedPipelineBitIdentical: the compressed graph
// (graph.Compress) on one, two and eight workers.
func TestCompressedPipelineBitIdentical(t *testing.T) { checkPipelineGuard(t) }

// TestBatchingBitIdentical: full-cut refinement on one and eight
// workers, which share the geometric partitioner's derived sample,
// candidates and gathered records across ranks.
func TestBatchingBitIdentical(t *testing.T) { checkPipelineGuard(t) }

// TestTracingKeepsPipelineBitIdentical: runs with and without a Recorder.
func TestTracingKeepsPipelineBitIdentical(t *testing.T) { checkPipelineGuard(t) }

// TestRecoveryZeroFaultsBitIdentical: respawn recovery armed with no
// fault, with one and two trials; runDigests also checks the recovery
// stats (one attempt at full P when armed, none otherwise).
func TestRecoveryZeroFaultsBitIdentical(t *testing.T) { checkPipelineGuard(t) }

// TestDigestReporterNamesPhase injects two faults into the traced
// grid32-s3/P4 run's comparison, a one-ulp change of one rank's clock at
// its geopart boundary and one tampered golden line, and requires each
// to be reported under that phase's name.
func TestDigestReporterNamesPhase(t *testing.T) {
	const input = "grid32-s3/P4"
	golden, raw := readDigestGolden(t)
	want := golden[input]
	res, rec := tracedRun(t, 4)
	final := finalLink(res)
	if phase, msg := firstDivergence(append(phaseChain(rec), final), want); phase != "" {
		t.Fatalf("unperturbed run diverged at %q: %s", phase, msg)
	}

	mid := want[len(want)/2]
	line := fmt.Sprintf("%s %s %016x\n", input, mid.phase, mid.digest)
	tampered, err := parseDigestGolden(strings.Replace(raw, line, fmt.Sprintf("%s %s %016x\n", input, mid.phase, mid.digest^1), 1))
	if err != nil || !strings.Contains(raw, line) {
		t.Fatalf("cannot tamper with golden line %q: %v", line, err)
	}
	if phase, msg := firstDivergence(append(phaseChain(rec), final), tampered[input]); phase != mid.phase {
		t.Errorf("tampered %q line reported at %q (%s)", mid.phase, phase, msg)
	}

	evs := rec.Ranks()[2].Events()
	for i := range evs {
		if evs[i].Kind == trace.KindPhase && evs[i].Op == "geopart" {
			evs[i].Start = math.Nextafter(evs[i].Start, math.Inf(1))
			break
		}
	}
	if phase, msg := firstDivergence(append(phaseChain(rec), final), want); phase != "geopart" {
		t.Errorf("one-ulp drift at rank 2's geopart boundary reported at %q (%s)", phase, msg)
	}
}
