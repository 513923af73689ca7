package mpi

import "math"

// Cost is one modeled communication charge: the total a clock is
// charged, its split into the paper's Section 3.1 terms — latency (ts),
// bandwidth (tw), per-peer posting overhead (to) — and the payload
// bytes the trace records. Only the constructors below build a Cost,
// each computing its total in one fixed float order, so a charge of one
// shape always advances clocks by the same bits. A Cost passes by value
// and allocates nothing.
//
// Only the total is charged; the terms ride beside it for the trace.
// For Hop, Peers and Flat costs the terms sum to the total exactly.
// Times and Plus scale and add term by term, so the terms of a composed
// cost can differ from its total by rounding: AllReduce,
// AllReduceSliceWith and Bcast when ⌈log2 P⌉ is not a power of two, and
// the coarsening negotiation and RCB level replays.
//
// Only the runtime's collectives stamp a payload; a cost composed for
// SyncCost replays a charge without moving data and records none.
type Cost struct {
	total, ts, tw, to float64
	bytes             int64
}

// Hop is one message or tree hop carrying bytes of payload:
// Latency + PerByte·bytes.
func (m *Model) Hop(bytes int) Cost {
	tw := m.PerByte * float64(bytes)
	return Cost{total: m.Latency + tw, ts: m.Latency, tw: tw}
}

// sendCost is the transit time of one point-to-point message: one hop
// plus the backoff of any healed retransmissions,
// (Latency + PerByte·bytes) + backoff. The receiver books it whole.
func (m *Model) sendCost(bytes int, backoff float64) float64 {
	return m.Hop(bytes).total + backoff
}

// Peers is the per-peer posting overhead of one irregular exchange over
// p ranks, the o·P term: PerPeer·p.
func (m *Model) Peers(p int) Cost {
	return Flat(0, 0, m.PerPeer*float64(p))
}

// Flat is a cost given term by term; its total is ts + tw + to.
func Flat(ts, tw, to float64) Cost {
	return Cost{total: ts + tw + to, ts: ts, tw: tw, to: to}
}

// Times is c repeated k times (k tree levels, k rounds): the total and
// every term scaled by k. The payload is that of one repetition.
func (c Cost) Times(k float64) Cost {
	return Cost{total: c.total * k, ts: c.ts * k, tw: c.tw * k, to: c.to * k, bytes: c.bytes}
}

// Plus is c followed by o: totals, terms and payloads add.
func (c Cost) Plus(o Cost) Cost {
	return Cost{total: c.total + o.total, ts: c.ts + o.ts, tw: c.tw + o.tw, to: c.to + o.to, bytes: c.bytes + o.bytes}
}

// payload stamps the bytes a collective moves for the trace.
func (c Cost) payload(bytes int) Cost {
	c.bytes = int64(bytes)
	return c
}

// Log2Ceil is ⌈log2 n⌉, the depth of a binomial tree over n ranks, with
// Log2Ceil(n) = 0 for n ≤ 1.
func Log2Ceil(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// treeCost is one binomial tree over p ranks moving bytes per hop
// (Bcast, and Barrier with no payload): (Latency + PerByte·bytes)·⌈log2 p⌉.
func (m *Model) treeCost(p, bytes int) Cost {
	return m.Hop(bytes).Times(Log2Ceil(p)).payload(bytes)
}

// allReduceCost is a reduce tree then a broadcast tree:
// 2·(Latency + PerByte·bytes)·⌈log2 p⌉.
func (m *Model) allReduceCost(p, bytes int) Cost {
	return m.Hop(bytes).Times(2).Times(Log2Ceil(p)).payload(bytes)
}

// allGatherCost is a ring gather of bytes per rank:
// Latency·⌈log2 p⌉ + PerByte·bytes·(p−1).
func (m *Model) allGatherCost(p, bytes int) Cost {
	return Flat(m.Latency*Log2Ceil(p), m.PerByte*float64(bytes)*float64(p-1), 0).payload(bytes)
}

// allGatherVCost is a gather of total bytes in all:
// Latency·⌈log2 p⌉ + PerByte·total.
func (m *Model) allGatherVCost(p, total int) Cost {
	return Flat(m.Latency*Log2Ceil(p), m.PerByte*float64(total), 0).payload(total)
}

// countsCost is an all-to-all of one int32 per pair of p ranks:
// Latency·⌈log2 p⌉ + PerByte·4·p + PerPeer·p.
func (m *Model) countsCost(p int) Cost {
	return Flat(m.Latency*Log2Ceil(p), m.PerByte*4*float64(p), m.PerPeer*float64(p)).payload(4 * p)
}

// commCost is a replayed point-to-point exchange:
// messages·Latency + bytes·PerByte.
func (m *Model) commCost(messages, bytes int) Cost {
	return Flat(float64(messages)*m.Latency, float64(bytes)*m.PerByte, 0).payload(bytes)
}
