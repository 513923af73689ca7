package mpi

import "testing"

// BenchmarkAllToAllV measures the personalized all-to-all over a small
// per-pair payload — the directory-resolution workload of the embedding
// projection path.
func BenchmarkAllToAllV(b *testing.B) {
	const p = 8
	b.ReportAllocs()
	Run(p, DefaultModel(), func(c *Comm) {
		var send []int32
		counts := make([]int32, p)
		for r := 0; r < p; r++ {
			if r == c.Rank() {
				continue
			}
			for i := 0; i < 32; i++ {
				send = append(send, int32(c.Rank()*1000+i))
			}
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			for r := range counts {
				counts[r] = 32
			}
			counts[c.Rank()] = 0
			AllToAllV(c, send, counts, 4)
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
}

// BenchmarkNeighborExchange measures the coalesced halo-exchange
// primitive on a ring: one pooled message per partner per round, as in
// the embedding's per-iteration neighbourhood refresh.
func BenchmarkNeighborExchange(b *testing.B) {
	const (
		p       = 8
		payload = 96 // floats per partner per round
	)
	b.ReportAllocs()
	Run(p, DefaultModel(), func(c *Comm) {
		partners := ringPartners(c.Rank(), p)
		round := func() {
			bufs := make([]*VecBuf[float64], len(partners))
			for i := range bufs {
				bufs[i] = Float64Bufs.Get(payload)
				for j := range bufs[i].Data {
					bufs[i].Data[j] = float64(j)
				}
			}
			NeighborExchange(c, partners, bufs, 8, func(_, _ int, data []float64) {})
		}
		round() // warm up the pools
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			round()
		}
		c.Barrier()
		if c.Rank() == 0 {
			b.StopTimer()
		}
	})
}
