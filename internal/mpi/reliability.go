package mpi

import "fmt"

// Reliability-layer parameters (see Reliability).
const (
	// DefaultRetryBudget is the number of retransmissions the reliability
	// layer attempts for one message before declaring the link dead and
	// escalating the drop to a rank failure.
	DefaultRetryBudget = 3
	// ackFactor scales the first retransmission timeout relative to the
	// message round trip (2·Latency + PerByte·bytes); later timeouts
	// double (bounded exponential backoff).
	ackFactor = 4.0
)

// Reliability is the opt-in self-healing layer over point-to-point
// messaging, attached to a run via Model.Reliable. With it enabled,
// every point-to-point message carries a per-link sequence number and
// is conceptually acknowledged by the receiver; an injected DropMessage
// fault is then healed by deterministic retransmission instead of
// leaving the receiver to deadlock into the watchdog; a DelayMessage
// fault whose delay exceeds the ack timeout is healed by a single
// retransmission that overtakes the late original; and a
// TruncatePayload fault — on a send or on a collective contribution —
// is caught by the payload checksum and healed by one retransmission
// charged one ack timeout, so corrupted data never reaches the
// algorithm.
//
// The protocol is not simulated turn by turn — its deterministic
// outcome is charged to the virtual clocks at the send site: the
// receiver sees the message arrive after the summed backoff timeouts
// (timeout·(2^k − 1) for k lost transmissions), and the sender is
// charged one extra Latency per retransmission, traced as a `retry`
// event. Faults still fire at most once at their (rank, event)
// position, so ranks no fault reaches keep bit-identical clocks; with
// zero faults firing the layer is pure bookkeeping and the whole run is
// bit-identical to an unreliable one.
//
// A drop that repeats beyond RetryBudget consecutive transmissions
// (Fault.Repeat > budget) means the link is dead: the sender panics
// with a *RetryBudgetError, which RunChecked converts into a RankError
// so recovery policies (respawn/shrink) can take over.
type Reliability struct {
	// RetryBudget is the maximum number of retransmissions per message;
	// 0 selects DefaultRetryBudget.
	RetryBudget int
}

func (r *Reliability) budget() int {
	if r.RetryBudget > 0 {
		return r.RetryBudget
	}
	return DefaultRetryBudget
}

// ackTimeout is the virtual time the sender waits for an acknowledgement
// before retransmitting a bytes-sized message: ackFactor times the
// modeled round trip of the message.
func (r *Reliability) ackTimeout(m *Model, bytes int) float64 {
	return ackFactor * (2*m.Latency + m.PerByte*float64(bytes))
}

// backoffTotal sums `attempts` exponentially doubling timeouts:
// timeout·(2^attempts − 1), the virtual time the healed message spends
// being retransmitted before its successful delivery.
func backoffTotal(timeout float64, attempts int) float64 {
	total := 0.0
	step := timeout
	for k := 0; k < attempts; k++ {
		total += step
		step *= 2
	}
	return total
}

// RetryBudgetError reports a link the reliability layer gave up on: a
// DropMessage fault swallowed the original transmission and every
// retransmission within the retry budget. It surfaces wrapped in the
// *RankError RunChecked returns, where recovery drivers treat it like a
// rank death.
type RetryBudgetError struct {
	Rank   int   // sender whose link died
	To     int   // destination of the undeliverable message
	Event  int64 // the sender's communication-event position
	Drops  int   // consecutive transmissions the fault swallowed
	Budget int   // retransmissions that were attempted
}

func (e *RetryBudgetError) Error() string {
	return fmt.Sprintf("reliability: rank %d could not deliver to rank %d at event %d: %d consecutive transmissions dropped, retry budget %d exhausted",
		e.Rank, e.To, e.Event, e.Drops, e.Budget)
}
