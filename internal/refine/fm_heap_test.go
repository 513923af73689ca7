package refine

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/gen"
)

// TestGainHeapPopOrderMatchesSort: filling the heap and draining it
// must yield gains in non-increasing order, and the drained multiset
// must equal the input — the max-heap contract checked against a
// reference sort.
func TestGainHeapPopOrderMatchesSort(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(400)
		h := make(gainHeap, 0, n)
		ref := make([]int64, 0, n)
		for v := 0; v < n; v++ {
			gain := int64(rng.Intn(21) - 10) // dense ties, zero and negative gains
			h = append(h, item{v: int32(v), gain: gain, stamp: 1})
			ref = append(ref, gain)
		}
		h.init()
		sort.Slice(ref, func(i, j int) bool { return ref[i] > ref[j] })
		got := make([]int64, 0, n)
		for len(h) > 0 {
			it := h.pop()
			if len(got) > 0 && it.gain > got[len(got)-1] {
				t.Fatalf("seed %d: pop %d returned gain %d after %d (not non-increasing)",
					seed, len(got), it.gain, got[len(got)-1])
			}
			got = append(got, it.gain)
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("seed %d: pop sequence diverges from sorted reference at %d: got %d want %d",
					seed, i, got[i], ref[i])
			}
		}
	}
}

// TestGainHeapRandomUpdatePopSequence drives the heap exactly the way
// Run does — lazy invalidation via stamps, gain updates as fresh
// pushes — against a reference that tracks the live (gain, stamp) per
// vertex by linear scan. Every valid pop must return the maximum live
// gain.
func TestGainHeapRandomUpdatePopSequence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(100 + seed))
		n := 2 + rng.Intn(120)
		gains := make([]int64, n)
		stamp := make([]int64, n)
		dead := make([]bool, n)
		var h gainHeap
		for v := 0; v < n; v++ {
			gains[v] = int64(rng.Intn(9) - 4)
			stamp[v] = 1
			h = append(h, item{v: int32(v), gain: gains[v], stamp: 1})
		}
		h.init()
		liveMax := func() (int64, bool) {
			var best int64
			found := false
			for v := 0; v < n; v++ {
				if dead[v] {
					continue
				}
				if !found || gains[v] > best {
					best, found = gains[v], true
				}
			}
			return best, found
		}
		for step := 0; step < 4*n && len(h) > 0; step++ {
			if rng.Intn(3) == 0 { // gain update on a random live vertex
				v := rng.Intn(n)
				if !dead[v] {
					gains[v] += int64(rng.Intn(7) - 3)
					stamp[v]++
					h.push(item{v: int32(v), gain: gains[v], stamp: stamp[v]})
				}
				continue
			}
			it := h.pop()
			if dead[it.v] || it.stamp != stamp[it.v] {
				continue // lazily invalidated entry, exactly as Run skips it
			}
			want, ok := liveMax()
			if !ok {
				t.Fatalf("seed %d: heap returned %v with no live vertices", seed, it)
			}
			if it.gain != want {
				t.Fatalf("seed %d step %d: popped gain %d, live max is %d", seed, step, it.gain, want)
			}
			dead[it.v] = true
		}
	}
}

// TestFMTieBreakDeterministic: on instances that are all ties — every
// gain zero or negative — the move order is fixed by the vertex-index
// insertion order feeding the deterministic sift rules, so two runs
// from identical inputs must produce identical side vectors, and
// SolveFreeSet must produce identical flips regardless of the order
// its records were gathered in.
func TestFMTieBreakDeterministic(t *testing.T) {
	gr := gen.Grid2D(16, 16)

	// Zero/negative-gain instance: the clean bisection is optimal, every
	// move has gain <= 0, so the pass is one long tie-break.
	clean := noisyBisection(gr.G, 16, 0, 1)
	run := func() ([]int8, int64) {
		side := append([]int8(nil), clean...)
		prob, _ := fullProblem(gr.G, side, 0.03, 4)
		gain := prob.Run()
		return prob.Side, gain
	}
	s1, g1 := run()
	s2, g2 := run()
	if g1 != g2 {
		t.Fatalf("gain differs across identical runs: %d vs %d", g1, g2)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("side[%d] differs across identical runs", i)
		}
	}
	if g1 != 0 {
		t.Fatalf("clean bisection refined with gain %d, want 0", g1)
	}

	// Gather-order invariance: SolveFreeSet orders the free vertices by
	// id before building the problem, so a permuted record set
	// (different rank arrival order) yields bit-identical flips.
	noisy := noisyBisection(gr.G, 16, 0.08, 7)
	recs := boundaryRecords(t, gr.G, noisy)
	var sideW [2]int64
	for v, s := range noisy {
		sideW[s] += int64(gr.G.VertexWeight(int32(v)))
	}
	total := sideW[0] + sideW[1]
	base := SolveFreeSet(gr.G, append([]SideRecord(nil), recs...), sideW, total, 0.05, 4)
	for seed := int64(0); seed < 4; seed++ {
		shuffled := append([]SideRecord(nil), recs...)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		before := append([]SideRecord(nil), shuffled...)
		got := SolveFreeSet(gr.G, shuffled, sideW, total, 0.05, 4)
		if !slices.Equal(shuffled, before) {
			t.Fatalf("shuffle seed %d: SolveFreeSet modified its records", seed)
		}
		if got.Gain != base.Gain || got.SideW != base.SideW || got.Free != base.Free ||
			len(got.Flips) != len(base.Flips) {
			t.Fatalf("shuffle seed %d: result drifted: %+v vs %+v", seed, got, base)
		}
		for i := range got.Flips {
			if got.Flips[i] != base.Flips[i] {
				t.Fatalf("shuffle seed %d: flip[%d] = %d, want %d", seed, i, got.Flips[i], base.Flips[i])
			}
		}
	}
}
