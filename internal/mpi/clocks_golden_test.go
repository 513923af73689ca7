package mpi

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hostpar"
)

// clockOps names the collectives clockBody runs, in order.
var clockOps = [...]string{
	"AllReduce", "AllReduceSlice", "AllGather", "AllGatherV",
	"Bcast", "Barrier", "AllToAllV", "NeighborExchange",
}

// clockSample is one rank's counters right after one collective, plus
// a float summary of the value that collective returned to the rank.
type clockSample struct {
	snap RankSnapshot
	val  float64
}

// clockBody runs each collective of clockOps once on p ranks, with a
// rank-skewed compute charge before each so arrival clocks differ, and
// returns every rank's counters after each op.
func clockBody(p int, m Model) [][len(clockOps)]clockSample {
	out := make([][len(clockOps)]clockSample, p)
	Run(p, m, func(c *Comm) {
		r := c.Rank()
		rec := func(i int, val float64) {
			out[r][i] = clockSample{snap: c.Snapshot(), val: val}
		}
		skew := func(i int) { c.Charge(float64((r*37+i*11)%23) * 1000) }

		skew(0)
		rec(0, AllReduce(c, 0.1*float64(r)+1e-12*float64(r*r), 8, SumFloat64))
		skew(1)
		vec := AllReduceSlice(c, []float64{float64(r), 1 / float64(r+1), math.Sin(float64(r))}, 8, SumFloat64)
		rec(1, vec[0]+vec[1]+vec[2])
		skew(2)
		sum := 0.0
		for _, v := range AllGather(c, 1.5*float64(r), 8) {
			sum += v
		}
		rec(2, sum)
		skew(3)
		rec(3, float64(len(Concat(AllGatherV(c, make([]int32, r%3+1), 4)))))
		skew(4)
		rec(4, float64(c.Bcast(p/2, r*3, 8).(int)))
		skew(5)
		c.Barrier()
		rec(5, 0)
		skew(6)
		dest := make([][]int32, p)
		for d := range dest {
			if (r+d)%3 == 0 && d != r {
				dest[d] = []int32{int32(r), int32(d)}
			}
		}
		n := 0
		for _, got := range AllToAllV(c, dest, 4) {
			n += len(got)
		}
		rec(6, float64(n))
		skew(7)
		var partners []int
		if p > 1 {
			partners = append(partners, (r+1)%p)
			if l := (r + p - 1) % p; l != partners[0] {
				partners = append(partners, l)
			}
		}
		bufs := make([]*VecBuf[float64], len(partners))
		for i := range bufs {
			bufs[i] = Float64Bufs.Get(r%4 + 1)
			for j := range bufs[i].Data {
				bufs[i].Data[j] = float64(r)
			}
		}
		recv := 0.0
		NeighborExchange(c, partners, bufs, 8, func(_, _ int, data []float64) {
			for _, v := range data {
				recv += v
			}
		})
		rec(7, recv)
	})
	return out
}

// formatClocks renders clockBody's samples as golden text: one line per
// rank and op for small P, and per op a SHA-256 over every rank's bits
// with the slowest rank's clock for large P.
func formatClocks(p int, s [][len(clockOps)]clockSample) string {
	var b strings.Builder
	for i, op := range clockOps {
		if p <= 3 {
			for r := range s {
				x := s[r][i]
				fmt.Fprintf(&b, "P=%d %s rank=%d clock=%x comm=%x bytes=%d msgs=%d events=%d val=%x\n",
					p, op, r, math.Float64bits(x.snap.Clock), math.Float64bits(x.snap.CommTime),
					x.snap.BytesSent, x.snap.Messages, x.snap.Events, math.Float64bits(x.val))
			}
			continue
		}
		h := sha256.New()
		mx := 0.0
		for r := range s {
			x := s[r][i]
			binary.Write(h, binary.LittleEndian, []uint64{
				math.Float64bits(x.snap.Clock), math.Float64bits(x.snap.CommTime),
				uint64(x.snap.BytesSent), uint64(x.snap.Messages), uint64(x.snap.Events),
				math.Float64bits(x.val),
			})
			mx = math.Max(mx, x.snap.Clock)
		}
		fmt.Fprintf(&b, "P=%d %s max_clock=%.17g sha256=%x\n", p, op, mx, h.Sum(nil))
	}
	return b.String()
}

// TestCollectiveClocksGolden pins every rank's virtual clock, comm
// time, traffic and event count after each collective against a file
// recorded while a second, independent collective engine was still in
// the tree and agreed with the current one bit for bit. It runs with two
// host workers, so the P = 1024 block exercises the chunked scanMax.
// The file is evidence, not a snapshot: it is never regenerated, and a
// diff means the collective cost model moved.
func TestCollectiveClocksGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "collective_clocks.golden"))
	if err != nil {
		t.Fatal(err)
	}
	ps := []int{1, 3, 64, 1024}
	if testing.Short() {
		ps = ps[:3]
	}
	defer hostpar.SetWorkers(hostpar.SetWorkers(2))
	m := DefaultModel()
	var got strings.Builder
	for _, p := range ps {
		got.WriteString(formatClocks(p, clockBody(p, m)))
	}
	if testing.Short() { // P = 1024 is the file's last block
		want = want[:min(len(want), got.Len())]
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				t.Fatalf("line %d drifted from the golden file\n got  %s\n want %s",
					i+1, gl[i], wl[min(i, len(wl)-1)])
			}
		}
		t.Fatal("output shorter than the golden file")
	}
}
