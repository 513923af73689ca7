package embed

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/mpi"
)

// directoryFixture is one rank's side of a directory round shaped like
// a high-P level: rank r owns the m ids [r·m, (r+1)·m) and needs the
// owners of the next rank's m ids as ghosts, so every rank registers at
// m directory ranks and queries m others.
func directoryFixture(rank, p, m int) (owned, ghosts []int32) {
	for k := 0; k < m; k++ {
		owned = append(owned, int32(rank*m+k))
		ghosts = append(ghosts, int32((rank+1)%p*m+k))
	}
	return owned, ghosts
}

// checkDirectoryAnswers requires every ghost of the fixture to resolve
// to the next rank.
func checkDirectoryAnswers(t testing.TB, rank, p int, got []int) {
	for i, o := range got {
		if o != (rank+1)%p {
			t.Errorf("rank %d: ghost %d resolved to rank %d, want %d", rank, i, o, (rank+1)%p)
			return
		}
	}
}

// TestResolveOwnersBytesPerRank guards the directory round's memory: one
// round of resolveOwners may allocate, per rank, its payload plus a
// small constant times P words (the count and cursor arrays and the
// rank's share of the count transposes). Per-partner slice headers, 24
// bytes for each of P partners in every per-destination or per-source
// [][]T, exceed the bound several times over.
func TestResolveOwnersBytesPerRank(t *testing.T) {
	const m = 4
	for _, p := range []int{256, 1024} {
		var m0, m1 runtime.MemStats
		mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
			owned, ghosts := directoryFixture(c.Rank(), p, m)
			resolveOwners(c, owned, ghosts) // warm the rendezvous and mailboxes
			c.Barrier()
			if c.Rank() == 0 {
				// Peers are parked in the barrier below: quiescent.
				runtime.GC()
				runtime.ReadMemStats(&m0)
			}
			c.Barrier()
			got := resolveOwners(c, owned, ghosts)
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&m1)
			}
			c.Barrier()
			checkDirectoryAnswers(t, c.Rank(), p, got)
		})
		perRank := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(p)
		// Payload: the framed requests, received requests, answers,
		// replies, the result and the directory, with room for message
		// boxing and pending rings, all O(m) per rank.
		payload := float64(4096 + 256*m)
		if bound := payload + 4*8*float64(p); perRank > bound {
			t.Errorf("P=%d: one directory round allocated %.0f bytes per rank, want at most %.0f (payload %.0f + 4·P words)", p, perRank, bound, payload)
		}
		t.Logf("P=%d: one directory round allocated %.0f bytes per rank (%.2f words per P)", p, perRank, (perRank-payload)/8/float64(p))
	}
}

// BenchmarkResolveOwners measures one world-wide directory round, each
// rank owning 16 ids and querying 16 ghosts (highp-p1024's share per
// rank). B/op is the whole world's allocation per round.
func BenchmarkResolveOwners(b *testing.B) {
	const m = 16
	for _, p := range []int{64, 1024} {
		b.Run(fmt.Sprintf("P%d", p), func(b *testing.B) {
			b.ReportAllocs()
			mpi.Run(p, mpi.DefaultModel(), func(c *mpi.Comm) {
				owned, ghosts := directoryFixture(c.Rank(), p, m)
				resolveOwners(c, owned, ghosts)
				c.Barrier()
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				c.Barrier()
				var got []int
				for i := 0; i < b.N; i++ {
					got = resolveOwners(c, owned, ghosts)
				}
				c.Barrier()
				if c.Rank() == 0 {
					b.StopTimer()
				}
				checkDirectoryAnswers(b, c.Rank(), p, got)
			})
		})
	}
}
