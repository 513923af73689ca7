package mpi

import (
	"sync"
	"sync/atomic"
)

// Typed, pooled point-to-point fast paths. The generic Send/Recv API
// moves payloads as `any`, which boxes every slice header onto the heap
// and leaves the payload itself to be reallocated by the sender on
// every message. The hot loops of the embedding (ghost refreshes and
// the per-iteration neighbour exchange) instead move *VecBuf values:
// reference-counted-by-convention buffers drawn from a sync.Pool,
// filled by the sender, consumed and released by the receiver. In
// steady state no allocation happens on either side: the pointer-to-
// struct payload converts to `any` without allocating, and the backing
// arrays cycle through the pool.
//
// Ownership protocol: SendVec transfers ownership of the buffer to the
// receiver — the sender must not touch it afterwards. The receiver
// calls Release (directly, or implicitly via NeighborExchange) once it
// has consumed Data, returning the buffer to the pool it came from.

// VecBuf is a pooled message payload: a typed slice plus the pool it
// returns to on Release.
type VecBuf[T any] struct {
	Data []T
	pool *VecPool[T]
}

// Release returns the buffer to its originating pool. The caller must
// not use Data afterwards.
func (b *VecBuf[T]) Release() {
	if b == nil {
		return
	}
	if poolAccounting.Load() {
		poolPuts.Add(1)
	}
	if b.pool != nil {
		b.pool.p.Put(b)
	}
}

// truncate implements the TruncatePayload fault for pooled payloads the
// same way it treats plain slices: the second half of the data is lost
// on the wire.
func (b *VecBuf[T]) truncate() any {
	b.Data = b.Data[:len(b.Data)/2]
	return b
}

// VecPool is a sync.Pool of reusable typed message buffers. One pool
// may serve every rank of a world (sync.Pool is concurrency-safe); a
// buffer released by the receiving rank becomes available to the next
// sender that asks.
type VecPool[T any] struct {
	p sync.Pool
}

// NewVecPool returns an empty pool for []T payloads.
func NewVecPool[T any]() *VecPool[T] { return &VecPool[T]{} }

// Float64Bufs is the pool of the embedding's per-iteration neighbour
// exchange.
var Float64Bufs = NewVecPool[float64]()

// Pool accounting: an opt-in ledger of buffer Gets and Releases, used
// by fault tests to assert that every buffer drawn from a pool is
// eventually released — a truncated or dropped message must not strand
// its payload forever (the "pool leak" class of bug).
var (
	poolAccounting atomic.Bool
	poolGets       atomic.Int64
	poolPuts       atomic.Int64
)

// setPoolAccounting enables or disables the Get/Release ledger and
// returns the previous setting; enabling it resets both counters.
func setPoolAccounting(on bool) bool {
	prev := poolAccounting.Swap(on)
	if on && !prev {
		poolGets.Store(0)
		poolPuts.Store(0)
	}
	return prev
}

// poolBalance returns the ledger: buffers drawn from pools and buffers
// released since accounting was enabled. A balanced run has gets ==
// puts once every world has been torn down.
func poolBalance() (gets, puts int64) {
	return poolGets.Load(), poolPuts.Load()
}

// releasePayload returns a message payload to its pool if it is a
// releasable buffer; any other payload type is left to the GC. Used on
// the paths where a payload dies without reaching its receiver: dropped
// messages and faulted-world teardown.
func releasePayload(data any) {
	if rel, ok := data.(interface{ Release() }); ok {
		rel.Release()
	}
}

// Get returns a buffer with len n, reusing pooled capacity when
// available.
func (p *VecPool[T]) Get(n int) *VecBuf[T] {
	if poolAccounting.Load() {
		poolGets.Add(1)
	}
	b, _ := p.p.Get().(*VecBuf[T])
	if b == nil {
		b = &VecBuf[T]{pool: p}
	}
	if cap(b.Data) < n {
		b.Data = make([]T, n)
	} else {
		b.Data = b.Data[:n]
	}
	return b
}

// SendVec delivers a pooled buffer to rank `to`, modeling the payload
// as bytesPerElem·len(buf.Data) bytes. Ownership of buf transfers to
// the receiver, which releases it after consumption. Cost model and
// event accounting are identical to Send with the equivalent slice.
func SendVec[T any](c *Comm, to int, buf *VecBuf[T], bytesPerElem int) {
	c.sendOp(to, buf, bytesPerElem*len(buf.Data), opSendVec)
}

// RecvVec receives a pooled buffer sent with SendVec from rank `from`.
// The caller owns the result and must Release it after consuming Data.
func RecvVec[T any](c *Comm, from int) *VecBuf[T] {
	return c.recvOp(from, opRecvVec).(*VecBuf[T])
}

// NeighborExchange is the coalesced neighbourhood exchange primitive:
// bufs[i] travels to partners[i] as one message (whatever mix of
// payload kinds the caller packed into it), and recv is invoked once
// per partner, in partner order, with the received payload. Received
// buffers are released after recv returns; ownership of the sent
// buffers transfers to the receiving ranks. Every rank of the
// communicator must call it with symmetric partner lists (r lists q iff
// q lists r), or the world deadlocks.
//
// Cost model: one point-to-point message per partner each way, at
// Latency + PerByte·bytesPerElem·len per message — the paper's
// ts-per-partner term once, not once per payload kind.
func NeighborExchange[T any](c *Comm, partners []int, bufs []*VecBuf[T], bytesPerElem int, recv func(i, partner int, data []T)) {
	if len(partners) != len(bufs) {
		panic("mpi: NeighborExchange needs one buffer per partner")
	}
	for i, r := range partners {
		c.sendOp(r, bufs[i], bytesPerElem*len(bufs[i].Data), opNeighborExchange)
	}
	for i, r := range partners {
		b := c.recvOp(r, opNeighborExchange).(*VecBuf[T])
		// Release under defer: recv is caller code and may panic (e.g.
		// rejecting a truncated payload); the transport buffer must go
		// back to its pool either way.
		func() {
			defer b.Release()
			recv(i, r, b.Data)
		}()
	}
}
