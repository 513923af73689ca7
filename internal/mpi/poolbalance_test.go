package mpi

import (
	"testing"
	"time"
)

// requirePoolBalance asserts the accounting ledger is balanced: every
// pooled buffer drawn during the test was released back.
func requirePoolBalance(t *testing.T) {
	t.Helper()
	gets, puts := poolBalance()
	if gets != puts {
		t.Fatalf("pool leak: %d buffers fetched, %d released", gets, puts)
	}
	if gets == 0 {
		t.Fatal("accounting saw no pool traffic; the test exercised nothing")
	}
}

// TestDroppedVecBufReturnsToPool: a DropMessage fault kills the payload
// on the wire, so no receiver will ever Release it. The runtime must
// return the pooled buffer itself instead of stranding it.
func TestDroppedVecBufReturnsToPool(t *testing.T) {
	defer setPoolAccounting(setPoolAccounting(true))
	m := DefaultModel()
	m.Faults = NewFaultPlan().Drop(0, 0)
	_, err := RunChecked(2, m, func(c *Comm) {
		if c.Rank() == 0 {
			buf := Float64Bufs.Get(32)
			SendVec(c, 1, buf, 8)
		}
		// Rank 1 deliberately receives nothing: the message died on the
		// wire and waiting for it would deadlock.
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePoolBalance(t)
}

// TestTeardownDrainsUnreceivedBuffers: a message still sitting in an
// inbox when the world joins (the receiver returned without consuming
// it) must be drained and its pooled payload released at teardown.
func TestTeardownDrainsUnreceivedBuffers(t *testing.T) {
	defer setPoolAccounting(setPoolAccounting(true))
	pool := NewVecPool[int32]()
	_, err := RunChecked(2, DefaultModel(), func(c *Comm) {
		if c.Rank() == 0 {
			SendVec(c, 1, pool.Get(16), 4)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	requirePoolBalance(t)
}

// TestAbortedWorldReleasesInFlightBuffers: rank 2 is killed at its
// first event (the collective), aborting the world while rank 0's
// buffers are parked in rank 1's inbox behind the collective barrier.
// The teardown drain must release all of them — the fault path is
// exactly where leaks used to accumulate across a fault-injection
// sweep.
func TestAbortedWorldReleasesInFlightBuffers(t *testing.T) {
	defer setPoolAccounting(setPoolAccounting(true))
	m := watchdogModel(time.Second)
	m.Faults = NewFaultPlan().Kill(2, 0)
	_, err := RunChecked(4, m, func(c *Comm) {
		c.SetPhase("pipeline")
		if c.Rank() == 0 {
			for i := 0; i < 4; i++ {
				SendVec(c, 1, Float64Bufs.Get(16), 8)
			}
		}
		AllReduce(c, 1.0, 8, SumFloat64) // rank 2 dies here
		if c.Rank() == 1 {
			for i := 0; i < 4; i++ {
				RecvVec[float64](c, 0).Release()
			}
		}
	})
	if err == nil {
		t.Fatal("expected injected fault")
	}
	requirePoolBalance(t)
}

// TestNeighborExchangeReleasesOnPanickingCallback: NeighborExchange
// owns the receive buffers it hands to the callback; if the callback
// panics (e.g. on a truncated payload), the buffer must still return to
// its pool while the panic propagates to the harness.
func TestNeighborExchangeReleasesOnPanickingCallback(t *testing.T) {
	defer setPoolAccounting(setPoolAccounting(true))
	m := watchdogModel(time.Second)
	_, err := RunChecked(2, m, func(c *Comm) {
		c.SetPhase("exchange")
		partners := []int{1 - c.Rank()}
		bufs := []*VecBuf[float64]{Float64Bufs.Get(8)}
		NeighborExchange(c, partners, bufs, 8, func(i, partner int, data []float64) {
			if c.Rank() == 1 {
				panic("payload validation failed")
			}
		})
	})
	if err == nil {
		t.Fatal("expected the callback panic to surface as a RankError")
	}
	requirePoolBalance(t)
}
