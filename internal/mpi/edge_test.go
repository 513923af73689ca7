package mpi

import (
	"testing"
	"time"
)

// TestCollectivesSingleRankWorld exercises every collective on a P=1
// world, where the rendezvous short-circuits.
func TestCollectivesSingleRankWorld(t *testing.T) {
	stats := Run(1, DefaultModel(), func(c *Comm) {
		c.Barrier()
		if got := c.Bcast(0, "only", 4).(string); got != "only" {
			t.Error("bcast on P=1")
		}
		if got := AllReduce(c, int64(7), 8, SumInt64); got != 7 {
			t.Errorf("allreduce on P=1: %d", got)
		}
		if got := AllGather(c, 42, 8); len(got) != 1 || got[0] != 42 {
			t.Errorf("allgather on P=1: %v", got)
		}
		if got := Concat(AllGatherV(c, []int32{1, 2}, 4)); len(got) != 2 {
			t.Errorf("allgatherv on P=1: %v", got)
		}
		if got := AllToAllV(c, []int32{9}, []int32{1}, 4); len(got) != 1 || got[0] != 9 {
			t.Errorf("alltoallv on P=1: %v", got)
		}
		grid := GridFor(1)
		if got := HaloExchange(c, grid, nil, nil); len(got) != 0 {
			t.Errorf("halo on 1x1 grid: %v", got)
		}
	})
	if len(stats) != 1 {
		t.Fatalf("stats %v", stats)
	}
}

// TestEmptyPayloadCollectives checks variable-length collectives where
// every rank contributes nothing.
func TestEmptyPayloadCollectives(t *testing.T) {
	p := 4
	Run(p, DefaultModel(), func(c *Comm) {
		parts := AllGatherV(c, []int32(nil), 4)
		if len(parts) != p || len(Concat(parts)) != 0 {
			t.Errorf("empty allgatherv: %v", parts)
		}
		dest := make([][]int32, p)
		got := allToAllParts(c, dest, 4)
		for r, g := range got {
			if len(g) != 0 {
				t.Errorf("empty alltoallv from %d: %v", r, g)
			}
		}
	})
}

// TestNestedPrefixSubComms scopes collectives through two levels of
// prefix sub-communicators while the full world stays consistent.
func TestNestedPrefixSubComms(t *testing.T) {
	p := 8
	sums4 := make([]int64, p)
	sums2 := make([]int64, p)
	Run(p, DefaultModel(), func(c *Comm) {
		sub4 := c.SubComm(4)
		if c.Rank() >= 4 {
			if sub4 != nil {
				t.Error("non-member got subcomm")
			}
			return
		}
		sums4[c.Rank()] = AllReduce(sub4, int64(1), 8, SumInt64)
		sub2 := sub4.SubComm(2)
		if c.Rank() >= 2 {
			if sub2 != nil {
				t.Error("rank >= 2 got nested subcomm")
			}
			return
		}
		sums2[c.Rank()] = AllReduce(sub2, int64(10), 8, SumInt64)
	})
	for r := 0; r < 4; r++ {
		if sums4[r] != 4 {
			t.Fatalf("rank %d sub4 sum %d", r, sums4[r])
		}
	}
	for r := 0; r < 2; r++ {
		if sums2[r] != 20 {
			t.Fatalf("rank %d sub2 sum %d", r, sums2[r])
		}
	}
}

// TestPanickingRankUnblocksReceivers is the regression test for the
// pre-fault-tolerance behaviour: a rank panicking while another rank
// waits on it used to hang Run forever. Now the panic must propagate
// out of Run promptly, with the waiting rank torn down.
func TestPanickingRankUnblocksReceivers(t *testing.T) {
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		Run(3, DefaultModel(), func(c *Comm) {
			if c.Rank() == 1 {
				panic("boom")
			}
			c.Recv(1) // would previously block forever
		})
	}()
	select {
	case e := <-done:
		if e == nil {
			t.Fatal("Run returned without re-raising the rank panic")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run hung on a panicking rank")
	}
}

// TestPanickingRankReportsViaRunChecked is the checked-variant twin: the
// panic comes back as a RankError instead of a panic, and blocked
// collectives are drained.
func TestPanickingRankReportsViaRunChecked(t *testing.T) {
	_, err := RunChecked(4, DefaultModel(), func(c *Comm) {
		if c.Rank() == 2 {
			panic("kaput")
		}
		c.Barrier() // rank 2 never joins
	})
	if err == nil {
		t.Fatal("expected error")
	}
	re, ok := err.(*RankError)
	if !ok || re.Rank != 2 {
		t.Fatalf("want RankError at rank 2, got %v", err)
	}
}
