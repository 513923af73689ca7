package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/mpi"
	"repro/internal/trace"
)

// phaseClass reports whether a phase label belongs to a driver-level
// phase class ("coarsen", "embed", or "partition"; inner algorithm
// phases like "embed/L2" or "geopart" count toward their class).
func phaseClass(phase, class string) bool {
	switch class {
	case "partition":
		return phase == "partition" || phase == "geopart" || phase == "refine"
	default:
		return strings.HasPrefix(phase, class)
	}
}

// eventFor replays a traced fault-free run and returns the
// communication-event position of rank's first event of one of the
// given kinds inside the wanted phase class — the positions fault plans
// address.
func eventFor(t *testing.T, g *graph.Graph, opt Options, p, rank int, class string, kinds ...trace.Kind) int64 {
	t.Helper()
	rec := trace.New()
	o := opt
	o.Model.Trace = rec
	if _, err := PartitionChecked(g, p, o); err != nil {
		t.Fatal(err)
	}
	phase := ""
	var ev int64
	for _, e := range rec.Ranks()[rank].Events() {
		switch e.Kind {
		case trace.KindPhase:
			phase = e.Op
			continue
		case trace.KindSend, trace.KindRecv, trace.KindColl:
		default:
			continue
		}
		if phaseClass(phase, class) && slices.Contains(kinds, e.Kind) {
			return ev
		}
		ev++
	}
	t.Fatalf("rank %d performs no %v event inside phase class %q", rank, kinds, class)
	return -1
}

// killEventFor returns the position of rank's first communication
// event inside the wanted phase class, and checks that a kill there
// fails the run in that phase.
func killEventFor(t *testing.T, g *graph.Graph, opt Options, p, rank int, class string) int64 {
	t.Helper()
	e := eventFor(t, g, opt, p, rank, class, trace.KindSend, trace.KindRecv, trace.KindColl)
	o := opt
	o.Model.Faults = mpi.NewFaultPlan().Kill(rank, e)
	_, err := PartitionChecked(g, p, o)
	var re *mpi.RankError
	if !errors.As(err, &re) || re.Rank != rank || !phaseClass(re.Phase, class) {
		t.Fatalf("kill of rank %d at event %d: got %v, want a failure in phase class %q", rank, e, err, class)
	}
	return e
}

// sendEventFor returns the position of rank's first point-to-point Send
// inside the wanted phase class — the positions DropMessage and
// DelayMessage faults act on.
func sendEventFor(t *testing.T, g *graph.Graph, opt Options, p, rank int, class string) int64 {
	t.Helper()
	return eventFor(t, g, opt, p, rank, class, trace.KindSend)
}

// trialOptions3 is DefaultOptions(3) with the given trial count.
func trialOptions3(trials int) Options {
	opt := DefaultOptions(3)
	opt.Trials = trials
	return opt
}

// TestRespawnRecoversKillInEveryPhase: a rank killed during coarsening,
// embedding, or partitioning — or, with two trials, in their combine —
// is respawned from the newest complete checkpoint and the run finishes
// with the exact fault-free partition. A multi-trial run resumes after
// coarsening and replays every trial.
func TestRespawnRecoversKillInEveryPhase(t *testing.T) {
	g := gen.Grid2D(32, 32)
	const p = 4
	for _, trials := range []int{1, 2} {
		base, err := PartitionChecked(g.G, p, trialOptions3(trials))
		if err != nil {
			t.Fatal(err)
		}
		classes := []string{"coarsen", "embed", "partition"}
		if trials > 1 {
			classes = append(classes, "combine")
		}
		for _, class := range classes {
			tag := fmt.Sprintf("trials=%d kill in %s", trials, class)
			ev := killEventFor(t, g.G, trialOptions3(trials), p, 1, class)
			opt := trialOptions3(trials)
			opt.Model.Faults = mpi.NewFaultPlan().Kill(1, ev)
			opt.Recover = RecoverOptions{Policy: RecoverRespawn}
			res, err := PartitionChecked(g.G, p, opt)
			if err != nil {
				t.Fatalf("%s (event %d) not recovered: %v", tag, ev, err)
			}
			if res.Fallback {
				t.Fatalf("%s: respawn fell back to sequential", tag)
			}
			if res.Recovery == nil || res.Recovery.Respawns < 1 || res.Recovery.FinalP != p {
				t.Fatalf("%s: unexpected recovery stats %+v", tag, res.Recovery)
			}
			if trials > 1 && class != "coarsen" && res.Recovery.Resumes[0] != "respawn@"+stageEmbed.String() {
				t.Fatalf("%s: resumed at %v, want the coarsen checkpoint", tag, res.Recovery.Resumes)
			}
			if res.Cut != base.Cut || res.CutBefore != base.CutBefore || res.Imbalance != base.Imbalance {
				t.Fatalf("%s: respawned cut %d/%d imb %v != fault-free %d/%d imb %v",
					tag, res.Cut, res.CutBefore, res.Imbalance, base.Cut, base.CutBefore, base.Imbalance)
			}
			if !slices.Equal(res.Part, base.Part) {
				t.Fatalf("%s: respawned partition differs from the fault-free run", tag)
			}
			if err := CheckResult(g.G, res); err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
		}
	}
}

// TestShrinkRecoversKill: under the shrink policy a killed rank is
// dropped, its vertices are redistributed, and the P−1 world delivers a
// valid balanced partition.
func TestShrinkRecoversKill(t *testing.T) {
	g := gen.Grid2D(32, 32)
	const p = 4
	for _, class := range []string{"coarsen", "partition"} {
		ev := killEventFor(t, g.G, DefaultOptions(3), p, 2, class)
		opt := DefaultOptions(3)
		opt.Model.Faults = mpi.NewFaultPlan().Kill(2, ev)
		opt.Recover = RecoverOptions{Policy: RecoverShrink}
		res, err := PartitionChecked(g.G, p, opt)
		if err != nil {
			t.Fatalf("kill in %s (event %d) not recovered by shrink: %v", class, ev, err)
		}
		checkShrunk(t, g.G, res, p, "kill in "+class)
	}
}

// checkShrunk requires res to come from one world shrink of a P=p run:
// no fallback, final world P−1, and a valid balanced partition.
func checkShrunk(t *testing.T, g *graph.Graph, res *Result, p int, tag string) {
	t.Helper()
	if res.Fallback {
		t.Fatalf("%s: shrink fell back to sequential", tag)
	}
	if res.Recovery == nil || res.Recovery.Shrinks != 1 || res.Recovery.FinalP != p-1 || res.P != p-1 {
		t.Fatalf("%s: unexpected recovery stats %+v (P=%d)", tag, res.Recovery, res.P)
	}
	if err := CheckResult(g, res); err != nil {
		t.Fatalf("%s: shrunken partition invalid: %v", tag, err)
	}
	if res.Imbalance > 0.1 {
		t.Fatalf("%s: shrunken imbalance %v exceeds the balance constraint", tag, res.Imbalance)
	}
}

// TestRetryExhaustionEscalatesToRespawn: a drop repeated past the retry
// budget is a rank failure, and the respawn path heals it with an
// identical cut — the drop self-disarms because its position fired.
func TestRetryExhaustionEscalatesToRespawn(t *testing.T) {
	g := gen.Grid2D(32, 32)
	const p = 4
	base, err := PartitionChecked(g.G, p, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	// Point-to-point sends only happen in the embed phase (coarsen and
	// partition communicate through collectives), so that is where drop
	// faults can bite.
	ev := sendEventFor(t, g.G, DefaultOptions(3), p, 1, "embed")
	opt := DefaultOptions(3)
	// Repeat 10 > budget 3: the link is declared dead mid-embed.
	opt.Model.Faults = mpi.NewFaultPlan().DropN(1, ev, 10)
	opt.Recover = RecoverOptions{Policy: RecoverRespawn}
	res, err := PartitionChecked(g.G, p, opt)
	if err != nil {
		t.Fatalf("exhausted retry budget not recovered: %v", err)
	}
	if res.Recovery == nil || res.Recovery.Respawns < 1 || res.Recovery.Disarmed < 1 {
		t.Fatalf("unexpected recovery stats %+v", res.Recovery)
	}
	if res.Cut != base.Cut {
		t.Fatalf("respawned cut %d != fault-free cut %d", res.Cut, base.Cut)
	}
	if err := CheckResult(g.G, res); err != nil {
		t.Fatal(err)
	}
}

// TestHealedDropNeedsNoDriver: a drop within the retry budget is healed
// entirely inside the runtime — one attempt, same cut, slower clock.
func TestHealedDropNeedsNoDriver(t *testing.T) {
	g := gen.Grid2D(32, 32)
	const p = 4
	base, err := PartitionChecked(g.G, p, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	ev := sendEventFor(t, g.G, DefaultOptions(3), p, 1, "embed")
	opt := DefaultOptions(3)
	opt.Model.Faults = mpi.NewFaultPlan().Drop(1, ev)
	opt.Recover = RecoverOptions{Policy: RecoverRespawn}
	res, err := PartitionChecked(g.G, p, opt)
	if err != nil {
		t.Fatalf("in-budget drop not healed: %v", err)
	}
	if res.Recovery.Attempts != 1 || res.Recovery.Respawns != 0 {
		t.Fatalf("healing should not involve the driver: %+v", res.Recovery)
	}
	if res.Cut != base.Cut {
		t.Fatalf("healed cut %d != fault-free cut %d", res.Cut, base.Cut)
	}
	if res.Times.Total <= base.Times.Total {
		t.Fatalf("healed run total %.12g not slower than fault-free %.12g (backoff not charged?)",
			res.Times.Total, base.Times.Total)
	}
}

// TestRecoveryExhaustionFallsBack: when kills outnumber the respawn and
// shrink budgets, the driver reaches the sequential baseline — and only
// then.
func TestRecoveryExhaustionFallsBack(t *testing.T) {
	g := gen.Grid2D(32, 32)
	const p = 4
	opt := DefaultOptions(3)
	// One rank death per attempt, at well-separated positions so each
	// armed fault survives the previous attempt's disarming: rank 1 dies
	// in attempt 1, again in the respawned attempt 2, and (renumbered
	// from rank 2 by the shrink) the P−1 world dies in attempt 3 —
	// overwhelming a budget of one respawn and one shrink.
	opt.Model.Faults = mpi.NewFaultPlan().Kill(1, 2).Kill(1, 8).Kill(2, 60)
	opt.Recover = RecoverOptions{Policy: RecoverRespawn, MaxRespawns: 1, MaxShrinks: 1}
	res, err := PartitionChecked(g.G, p, opt)
	if err != nil {
		t.Fatalf("exhausted recovery must still deliver via fallback: %v", err)
	}
	if !res.Fallback {
		t.Fatal("recovery against an overwhelming schedule did not reach the fallback")
	}
	if res.Recovery == nil || res.Recovery.Respawns != 1 || res.Recovery.Shrinks != 1 {
		t.Fatalf("fallback reached without exhausting both policies: %+v", res.Recovery)
	}
	if err := CheckResult(g.G, res); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryStatsString smoke-checks the human-readable summaries.
func TestRecoveryStatsString(t *testing.T) {
	if got := (*RecoveryStats)(nil).String(); got != "recovery: off" {
		t.Fatalf("nil stats: %q", got)
	}
	s := &RecoveryStats{Attempts: 2, Respawns: 1, FinalP: 4}
	if !strings.Contains(s.String(), "1 respawn") || !strings.Contains(s.String(), "P=4") {
		t.Fatalf("stats summary %q", s.String())
	}
	for _, tc := range []struct {
		in   string
		want RecoveryPolicy
		ok   bool
	}{
		{"off", RecoverOff, true}, {"", RecoverOff, true},
		{"respawn", RecoverRespawn, true}, {"SHRINK", RecoverShrink, true},
		{"bogus", RecoverOff, false},
	} {
		got, err := ParseRecoveryPolicy(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseRecoveryPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if tc.ok && got.String() != strings.ToLower(tc.in) && tc.in != "" {
			t.Fatalf("round trip %q -> %v", tc.in, got)
		}
	}
}
