package mpi

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
)

// FaultKind enumerates the deterministic faults a FaultPlan can inject
// into a run.
type FaultKind int

const (
	// KillRank makes the target rank panic with an *InjectedFault the
	// moment it starts its Event-th communication operation, as if the
	// process died mid-run. RunChecked converts the panic into a
	// RankError and aborts the rest of the world.
	KillRank FaultKind = iota + 1
	// DropMessage silently discards the point-to-point message the
	// target rank sends at its Event-th communication operation. The
	// sender is charged the usual send overhead (the fault is on the
	// wire, not in the sender), so clocks of unaffected ranks do not
	// move; without a reliability layer the receiver blocks until the
	// watchdog declares a deadlock. With Model.Reliable set the drop is
	// healed by retransmission (Fault.Repeat counts how many consecutive
	// transmissions the fault swallows), unless Repeat exceeds the retry
	// budget, in which case the sender dies with a *RetryBudgetError.
	DropMessage
	// DelayMessage adds Delay virtual seconds to the arrival time of the
	// point-to-point message sent at the target rank's Event-th
	// communication operation. Only the receiver's clock (and anything
	// downstream of it) is perturbed.
	DelayMessage
	// TruncatePayload corrupts the payload the target rank contributes
	// at its Event-th communication operation: slice payloads (pooled
	// buffers included) keep their first ⌊n/2⌋ elements — an odd-length
	// payload loses the larger half. Any other message payload becomes
	// nil; any other collective contribution is lost, unless it carries
	// no payload at all (a Barrier's), and the collective then fails
	// with a RankError for the rank whose contribution was lost. A
	// combine that rejects a halved slice fails the combining rank.
	// With Model.Reliable set the corruption is caught by the payload
	// checksum and healed by one retransmission charged one ack timeout,
	// so the intact data always gets through.
	TruncatePayload
)

func (k FaultKind) String() string {
	switch k {
	case KillRank:
		return "kill"
	case DropMessage:
		return "drop"
	case DelayMessage:
		return "delay"
	case TruncatePayload:
		return "truncate"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one injected failure: it triggers when rank Rank starts its
// Event-th communication operation (0-based; sends, receives, and
// collective participations each count as one event). A fault fires at
// most once — recovery drivers that replay a failed world prune faults
// whose position already fired (see FaultPlan.Remaining), because a
// physical failure does not replay with the retry.
type Fault struct {
	Kind  FaultKind
	Rank  int
	Event int64
	Delay float64 // virtual seconds, DelayMessage only
	// Repeat is how many consecutive transmissions of the same message a
	// DropMessage fault swallows when a reliability layer retransmits
	// (0 and 1 both mean just the original). Repeat beyond the retry
	// budget escalates the drop to a rank failure.
	Repeat int
}

// FaultPlan is a deterministic schedule of injected faults, attached to
// a run via Model.Faults. Matching is purely positional (rank × event
// index), so a plan replays identically on every run of the same
// program; fault checks never touch virtual clocks, so ranks that no
// fault reaches keep bit-identical timings.
type FaultPlan struct {
	Faults []Fault
}

// NewFaultPlan returns an empty plan; chain Kill/Drop/Delay/Truncate to
// populate it.
func NewFaultPlan() *FaultPlan { return &FaultPlan{} }

// Kill schedules rank to die at its event-th communication operation.
func (p *FaultPlan) Kill(rank int, event int64) *FaultPlan {
	p.Faults = append(p.Faults, Fault{Kind: KillRank, Rank: rank, Event: event})
	return p
}

// Drop schedules the message rank sends at its event-th communication
// operation to vanish on the wire.
func (p *FaultPlan) Drop(rank int, event int64) *FaultPlan {
	p.Faults = append(p.Faults, Fault{Kind: DropMessage, Rank: rank, Event: event})
	return p
}

// DropN schedules the message rank sends at its event-th communication
// operation — and its first repeat−1 retransmissions, when a
// reliability layer retries — to vanish on the wire.
func (p *FaultPlan) DropN(rank int, event int64, repeat int) *FaultPlan {
	p.Faults = append(p.Faults, Fault{Kind: DropMessage, Rank: rank, Event: event, Repeat: repeat})
	return p
}

// Delay schedules the message rank sends at its event-th communication
// operation to arrive `seconds` virtual seconds late.
func (p *FaultPlan) Delay(rank int, event int64, seconds float64) *FaultPlan {
	p.Faults = append(p.Faults, Fault{Kind: DelayMessage, Rank: rank, Event: event, Delay: seconds})
	return p
}

// Truncate schedules the payload rank contributes at its event-th
// communication operation to be corrupted.
func (p *FaultPlan) Truncate(rank int, event int64) *FaultPlan {
	p.Faults = append(p.Faults, Fault{Kind: TruncatePayload, Rank: rank, Event: event})
	return p
}

// Key returns a canonical string identity of the plan, usable in cache
// keys: two plans with the same key inject the same faults. The empty
// plan (or nil) keys to "".
func (p *FaultPlan) Key() string {
	if p == nil || len(p.Faults) == 0 {
		return ""
	}
	var b strings.Builder
	for _, f := range p.Faults {
		fmt.Fprintf(&b, "%s:%d@%d", f.Kind, f.Rank, f.Event)
		if f.Kind == DelayMessage {
			fmt.Fprintf(&b, "+%g", f.Delay)
		}
		if f.Repeat > 1 {
			fmt.Fprintf(&b, "x%d", f.Repeat)
		}
		b.WriteByte(';')
	}
	return b.String()
}

// Len returns the number of scheduled faults (0 for nil plans).
func (p *FaultPlan) Len() int {
	if p == nil {
		return 0
	}
	return len(p.Faults)
}

// Clone returns an independent copy of the plan, so recovery drivers
// can prune fired faults without mutating a plan the caller may share
// across runs. Clone of nil is nil.
func (p *FaultPlan) Clone() *FaultPlan {
	if p == nil {
		return nil
	}
	return &FaultPlan{Faults: append([]Fault(nil), p.Faults...)}
}

// Remaining returns a new plan keeping only the faults whose trigger
// position no rank has passed: a fault at (rank, event) is pruned when
// events[rank] > event, because that world already fired it. events is
// the per-rank communication-event counter at teardown
// (RankStats.Events). Recovery drivers call this after a failed
// attempt — a fault fires at most once; physical failures do not replay
// with the retry.
func (p *FaultPlan) Remaining(events []int64) *FaultPlan {
	if p == nil {
		return nil
	}
	out := NewFaultPlan()
	for _, f := range p.Faults {
		if f.Rank >= 0 && f.Rank < len(events) && f.Event < events[f.Rank] {
			continue
		}
		out.Faults = append(out.Faults, f)
	}
	return out
}

// ShrinkRank returns a new plan for a world that dropped rank `dead`:
// faults aimed at the dead rank are removed and ranks above it shift
// down by one, mirroring how survivors renumber in a ULFM-style shrink.
func (p *FaultPlan) ShrinkRank(dead int) *FaultPlan {
	if p == nil {
		return nil
	}
	out := NewFaultPlan()
	for _, f := range p.Faults {
		if f.Rank == dead {
			continue
		}
		if f.Rank > dead {
			f.Rank--
		}
		out.Faults = append(out.Faults, f)
	}
	return out
}

// RandomPlan derives a seeded multi-fault schedule: one fault per
// requested kind (kinds may repeat), each aimed at a pseudo-random rank
// of a P-rank world and a pseudo-random communication event below
// maxEvent. Delay faults draw a delay between 1 µs and 1 ms — spanning
// both sides of the reliability layer's ack timeout — and drop faults
// draw a repeat count of 1–3 transmissions. With a single KillRank kind
// the draws (and so the plan) are identical to the historical
// RandomKillPlan. Chaos harnesses sweep `seed` to cover kind × rank ×
// event across every phase of a run.
func RandomPlan(seed int64, p int, maxEvent int64, kinds ...FaultKind) *FaultPlan {
	if len(kinds) == 0 {
		kinds = []FaultKind{KillRank}
	}
	rng := rand.New(rand.NewSource(seed))
	if p < 1 {
		p = 1
	}
	if maxEvent < 1 {
		maxEvent = 1
	}
	plan := NewFaultPlan()
	for _, k := range kinds {
		rank := rng.Intn(p)
		event := rng.Int63n(maxEvent)
		switch k {
		case DropMessage:
			plan.DropN(rank, event, 1+rng.Intn(3))
		case DelayMessage:
			plan.Delay(rank, event, float64(1+rng.Intn(1000))*1e-6)
		case TruncatePayload:
			plan.Truncate(rank, event)
		default:
			plan.Kill(rank, event)
		}
	}
	return plan
}

// at returns the first fault scheduled for (rank, event), or nil.
func (p *FaultPlan) at(rank int, event int64) *Fault {
	if p == nil {
		return nil
	}
	for i := range p.Faults {
		f := &p.Faults[i]
		if f.Rank == rank && f.Event == event {
			return f
		}
	}
	return nil
}

// InjectedFault is the error a KillRank fault raises inside the target
// rank; it surfaces to RunChecked callers wrapped in a RankError.
type InjectedFault struct {
	Rank  int
	Event int64
}

func (e *InjectedFault) Error() string {
	return fmt.Sprintf("injected fault: rank %d killed at communication event %d", e.Rank, e.Event)
}

// truncatable lets typed payloads (the pooled VecBuf fast paths) opt
// into slice-like corruption under TruncatePayload faults.
type truncatable interface{ truncate() any }

// truncatePayload corrupts a payload the way TruncatePayload specifies:
// slices (and pooled buffers) lose their second half; everything else
// becomes nil.
func truncatePayload(data any) any {
	if t, ok := data.(truncatable); ok {
		return t.truncate()
	}
	v := reflect.ValueOf(data)
	if v.Kind() == reflect.Slice {
		return v.Slice(0, v.Len()/2).Interface()
	}
	return nil
}
