package mpi

import "sync"

// Point-to-point delivery plumbing: growable message rings instead of
// channels. The historical implementation gave every receiver a
// buffered channel of capacity 2P+64, which is O(P²) memory across the
// world (126 MB of inbox buffers alone at P = 1024) and makes senders
// block on host backpressure that has no modeled meaning. A mailbox is
// a mutex-guarded ring the sender appends to in O(1) and the receiver
// drains in batches; it grows on demand, so sends never block and the
// initial per-rank footprint is a slab-carved 16-message ring.
//
// The per-source pending queues use the same ring (receiver-owned, no
// lock): dequeueing advances a head index instead of the former O(n)
// `copy(q, q[1:])` shift, so deep out-of-order backlogs pop in O(1)
// while preserving same-peer FIFO order exactly.

// mailboxSlabCap is the initial per-rank mailbox capacity, carved out
// of one world-wide slab at spin-up. Must be a power of two.
const mailboxSlabCap = 16

// msgRing is a growable FIFO ring of messages. The zero value is an
// empty ring that allocates its first buffer on push; the buffer length
// is always a power of two so index wrapping is a mask.
type msgRing struct {
	buf  []message
	head int
	n    int
}

func (q *msgRing) push(m message) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = m
	q.n++
}

// pop removes and returns the oldest message, zeroing its slot so the
// ring never pins a popped payload for the GC.
func (q *msgRing) pop() (message, bool) {
	if q.n == 0 {
		return message{}, false
	}
	m := q.buf[q.head]
	q.buf[q.head] = message{}
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return m, true
}

// grow doubles the ring. A zero-value ring starts at two messages: the
// pending ring of an out-of-order source (see enqueuePending) usually
// holds one message, and an all-to-all files one per source.
func (q *msgRing) grow() {
	newCap := 2 * len(q.buf)
	if newCap == 0 {
		newCap = 2
	}
	nb := make([]message, newCap)
	for i := 0; i < q.n; i++ {
		nb[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
	}
	q.buf = nb
	q.head = 0
}

// mailbox is one rank's incoming-message ring, shared by all senders.
type mailbox struct {
	mu sync.Mutex
	q  msgRing
}

// push appends a message; the caller follows up with a wake token on
// the receiver's wake channel. Never blocks: the ring grows instead,
// since send-side backpressure was host scheduling, never model.
func (mb *mailbox) push(m message) {
	mb.mu.Lock()
	mb.q.push(m)
	mb.mu.Unlock()
}

// drainMatch empties this rank's mailbox in arrival order, routing
// every message to its per-source pending ring except the first one
// from `from`, which is returned directly. Draining everything (rather
// than stopping at the match) keeps the shared ring short and the
// receiver's lock hold bounded by the backlog it already owns.
func (c *Comm) drainMatch(from int) (message, bool) {
	st := c.state
	mb := &st.box
	var out message
	found := false
	mb.mu.Lock()
	for {
		m, ok := mb.q.pop()
		if !ok {
			break
		}
		if !found && m.src == from {
			out, found = m, true
			continue
		}
		st.enqueuePending(m)
	}
	mb.mu.Unlock()
	return out, found
}

// enqueuePending files an out-of-order message under its source. Only
// the owning goroutine touches pending rings, and both the map and the
// rings are lazy: a rank that only ever receives in arrival order
// allocates neither, and takePending drops them again once drained.
func (st *rankState) enqueuePending(m message) {
	if st.pending == nil {
		st.pending = make(map[int]*msgRing, 8)
	}
	q := st.pending[m.src]
	if q == nil {
		q = &msgRing{}
		st.pending[m.src] = q
	}
	q.push(m)
}

// takePending pops the oldest queued message from `from`, if any. O(1):
// the ring advances its head index in place. A ring that drains is
// dropped, and so is the map once no source has a backlog, so a rank
// keeps no pending storage past the out-of-order burst that made it (a
// dense all-to-all files up to P−1 rings per rank). A ring in the map
// is therefore never empty.
func (c *Comm) takePending(from int) (message, bool) {
	st := c.state
	q := st.pending[from]
	if q == nil {
		return message{}, false
	}
	m, _ := q.pop()
	if q.n == 0 {
		delete(st.pending, from)
		if len(st.pending) == 0 {
			st.pending = nil
		}
	}
	return m, true
}
