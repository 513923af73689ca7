package bench

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// ChaosConfig parameterises a chaos soak: seeded randomized fault
// schedules (kill, drop, delay and truncate faults at random ranks and
// events, so faults land in every pipeline phase) thrown at
// recovery-enabled partitioning runs under both recovery policies.
type ChaosConfig struct {
	Graphs    []string
	Ps        []int
	Schedules int   // fault schedules per (graph, P, policy)
	Seed      int64 // base seed; schedule i of case c draws from Seed, c, i
}

// chaosMaxEvent bounds the fault positions: they are drawn from
// [0, chaosMaxEvent).
const chaosMaxEvent = 400

// ChaosCase is one (graph, P, policy, schedule) soak outcome.
type ChaosCase struct {
	Graph    string
	P        int
	Policy   core.RecoveryPolicy
	Seed     int64
	Plan     string // the injected schedule, FaultPlan.Key form
	Cut      int64
	BaseCut  int64 // fault-free cut at the same (graph, P)
	FinalP   int
	Fallback bool
	Recovery core.RecoveryStats
	Err      string // verification failure; empty when the case passed
}

// ChaosReport aggregates a soak.
type ChaosReport struct {
	Cases     []ChaosCase
	FullP     int // survived at full strength (healed in-runtime or respawned)
	Shrunk    int // survived in a smaller world
	Fallbacks int // exhausted every policy and fell back sequentially
	Failed    int // verification failures — must be zero
}

func (r *ChaosReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %d case(s): %d full-strength, %d shrunk, %d fallback, %d FAILED\n",
		len(r.Cases), r.FullP, r.Shrunk, r.Fallbacks, r.Failed)
	for _, c := range r.Cases {
		status := "ok"
		if c.Err != "" {
			status = "FAIL " + c.Err
		}
		fmt.Fprintf(&b, "  %-14s P=%-3d %-8s seed=%-6d plan=%-40q %s  %s\n",
			c.Graph, c.P, c.Policy, c.Seed, c.Plan, c.Recovery.String(), status)
	}
	return b.String()
}

// ChaosSoak throws cfg's randomized fault schedules at recovery-enabled
// ScalaPart runs and verifies every outcome: the run must end without
// error; a full-strength survivor must reproduce the fault-free cut
// bit-identically and pass CheckResult plus the trace invariants; a
// shrunken survivor must be a valid bisection within the balance
// constraint; only a run that exhausted its whole policy ladder may be
// a sequential fallback. Fault-free baselines come from h.Get, so the
// harness must carry its default (fault-free, recovery-off) settings.
// Cases run concurrently, as many at once as the model's effective
// host width.
func (h *Harness) ChaosSoak(cfg ChaosConfig) *ChaosReport {
	var cases []ChaosCase
	n := 0
	for _, gname := range cfg.Graphs {
		for _, p := range cfg.Ps {
			for _, pol := range []core.RecoveryPolicy{core.RecoverRespawn, core.RecoverShrink} {
				for s := 0; s < cfg.Schedules; s++ {
					// Distinct, deterministic per-case seeds: mix the case
					// ordinal into the base seed with a large prime stride.
					seed := cfg.Seed + int64(n)*7919
					cases = append(cases, ChaosCase{Graph: gname, P: p, Policy: pol, Seed: seed})
					n++
				}
			}
		}
	}
	runJobs(h.Model.ResolvedWorkers(), len(cases), func(i int) { cases[i] = h.chaosCase(cases[i]) })

	rep := &ChaosReport{Cases: cases}
	for _, cc := range cases {
		switch {
		case cc.Err != "":
			rep.Failed++
		case cc.Fallback:
			rep.Fallbacks++
		case cc.FinalP < cc.P:
			rep.Shrunk++
		default:
			rep.FullP++
		}
	}
	return rep
}

// chaosCase runs and verifies one soak case.
func (h *Harness) chaosCase(cc ChaosCase) ChaosCase {
	g := h.Graph(cc.Graph)
	base := h.Get(cc.Graph, MethodSP, cc.P)
	cc.BaseCut = base.Cut

	plan := mpi.RandomPlan(cc.Seed, cc.P, chaosMaxEvent, mpi.KillRank, mpi.DropMessage, mpi.DelayMessage, mpi.TruncatePayload)
	cc.Plan = plan.Key()

	opt := h.options(seedOf(cc.Graph))
	opt.Model.Faults = plan
	rec := trace.New()
	opt.Model.Trace = rec
	opt.Recover = core.RecoverOptions{Policy: cc.Policy}

	res, err := core.PartitionChecked(g.G, cc.P, opt)
	if err != nil {
		cc.Err = fmt.Sprintf("run error: %v", err)
		return cc
	}
	cc.Cut, cc.FinalP, cc.Fallback = res.Cut, res.P, res.Fallback
	if res.Recovery != nil {
		cc.Recovery = *res.Recovery
	}
	if res.Fallback {
		// The sequential result is produced outside the chaotic world; it
		// must still be a coherent partition.
		if verr := core.CheckResult(g.G, res); verr != nil {
			cc.Err = fmt.Sprintf("fallback partition invalid: %v", verr)
		}
		return cc
	}
	if verr := core.CheckResult(g.G, res); verr != nil {
		cc.Err = fmt.Sprintf("partition invalid: %v", verr)
		return cc
	}
	if verr := rec.CheckInvariants(); verr != nil {
		cc.Err = fmt.Sprintf("trace invariants: %v", verr)
		return cc
	}
	if res.P == cc.P {
		// Full-strength survival — whether healed entirely inside the
		// runtime or respawned from a checkpoint — replays the identical
		// charge sequence, so the cut must be bit-identical.
		if res.Cut != base.Cut {
			cc.Err = fmt.Sprintf("full-strength cut %d != fault-free cut %d", res.Cut, base.Cut)
		}
		return cc
	}
	if res.Imbalance > 0.1 {
		cc.Err = fmt.Sprintf("shrunken world imbalance %v breaks the balance constraint", res.Imbalance)
	}
	return cc
}
