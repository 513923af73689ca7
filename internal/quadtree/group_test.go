package quadtree

import (
	"math"
	"testing"

	"repro/internal/geometry"
)

// groupQuery is one lane's Repulsion query.
type groupQuery struct {
	p       geometry.Vec2
	exclude int32
	mi      float64
	acc     geometry.Vec2
}

// groupQueries returns a query for every point of the tree in tree
// order (excluding itself, with its own mass), then free queries
// (exclude = -1) at the points of free.
func groupQueries(tr *Tree, pts []geometry.Vec2, mass []float64, free []geometry.Vec2) []groupQuery {
	var qs []groupQuery
	for k, v := range tr.Order() {
		acc := geometry.Vec2{X: -0.25 * float64(k%3), Y: -0.125} // -0 when k%3 == 0
		qs = append(qs, groupQuery{pts[v], v, tr.massOf(v), acc})
	}
	for k, p := range free {
		qs = append(qs, groupQuery{p, -1, 1.5 - float64(k%2), geometry.Vec2{}})
	}
	return qs
}

// checkGroups answers qs with RepulsionGroup in groups of 1, 2, ..., 8,
// 1, ... lanes (sizes rotated by shift), on every kernel the CPU runs,
// and holds every lane to its own Repulsion bit for bit.
func checkGroups(t testing.TB, tr *Tree, qs []groupQuery, theta, ck2 float64, shift int) {
	t.Helper()
	var g Group
	for k := scalarWalk; k <= hostKernel; k++ {
		for i, size := 0, shift; i < len(qs); size++ {
			lanes := qs[i:min(i+size%GroupLanes+1, len(qs))]
			i += len(lanes)
			g.Reset()
			for _, q := range lanes {
				g.Add(q.p, q.exclude, q.mi, q.acc)
			}
			tr.repulsionGroup(&g, theta, ck2, k)
			for l, q := range lanes {
				want := tr.Repulsion(q.p, q.exclude, theta, ck2, q.mi, q.acc)
				got := g.Acc(l)
				if !sameBits(got.X, want.X) || !sameBits(got.Y, want.Y) {
					t.Fatalf("%v kernel, theta %v lane %d of %d, query %+v: group %v, Repulsion %v", k, theta, l, len(lanes), q, got, want)
				}
			}
		}
	}
}

// hazards returns free queries around the cloud's first point: NaN,
// infinite and subnormal offsets, and a point far outside the cloud.
func hazards(pts []geometry.Vec2) []geometry.Vec2 {
	if len(pts) == 0 {
		return nil
	}
	p := pts[0]
	nan, inf := math.NaN(), math.Inf(1)
	return []geometry.Vec2{
		{X: nan, Y: p.Y}, {X: p.X, Y: nan}, {X: nan, Y: nan},
		{X: inf, Y: p.Y}, {X: p.X, Y: -inf}, {X: inf, Y: inf}, {X: -inf, Y: nan},
		{X: p.X + 5e-324, Y: p.Y}, {X: p.X, Y: p.Y - 0x1p-1060}, p,
		{X: p.X + 1e6, Y: p.Y - 1e6}, {},
	}
}

// TestRepulsionGroupMatchesScalar: every lane of RepulsionGroup equals
// its own Repulsion bit for bit, on every group size, over clouds with
// duplicates past the depth cap, unit, zero and signed masses, and
// hazardous free queries.
func TestRepulsionGroupMatchesScalar(t *testing.T) {
	ck2 := fpC * fpK * fpK
	for _, c := range oracleCases {
		t.Run(c.name, func(t *testing.T) {
			pts, mass := cloud(c.seed, c.n, c.dups, c.massMod, c.scale)
			tr := Build(pts, mass)
			qs := groupQueries(tr, pts, mass, hazards(pts))
			for shift, theta := range []float64{0.5, 0.9, 1.2} {
				checkGroups(t, tr, qs, theta, ck2, shift)
			}
		})
	}
	// Queries inside the opening filter's band, which only the exact
	// test decides.
	pts, mass := cloud(3, 500, 0, 1, 1)
	tr := Build(pts, mass)
	for shift, theta := range []float64{0.5, 0.9, 1.2} {
		checkGroups(t, tr, groupQueries(tr, pts, mass, bandQueries(t, tr, theta)), theta, ck2, shift)
	}
	// Small trees, down to a lone leaf, and thetas the filter leaves to
	// the exact test.
	for n := 0; n <= 9; n++ {
		pts, mass := cloud(int64(n), n, n/3, n%4, 1)
		tr := Build(pts, mass)
		qs := groupQueries(tr, pts, mass, hazards(pts))
		for _, theta := range []float64{0.5, 0.9, 1.2, 0, math.NaN(), math.Inf(1)} {
			checkGroups(t, tr, qs, theta, ck2, n)
		}
	}
}

// TestLockstepRunsWithoutFallback calls the four-lane kernel directly
// on groups of eight: on a positive-mass cloud each half, lanes 0–3 and
// lanes 4–7, must finish at least 99% of its groups of consecutive
// points in tree order without falling back, every finished lane bit
// for bit equal to Repulsion, so the group test above cannot pass by
// always falling back.
func TestLockstepRunsWithoutFallback(t *testing.T) {
	checkNoFallback(t, fourLanes, []uint8{0x0f, 0xf0})
}

// TestLockstep8RunsWithoutFallback is TestLockstepRunsWithoutFallback
// for the eight-lane kernel, which finishes a group whole.
func TestLockstep8RunsWithoutFallback(t *testing.T) {
	checkNoFallback(t, eightLanes, []uint8{0xff})
}

// String names k in test logs and benchmark names.
func (k kernel) String() string {
	return [...]string{"scalar", "lanes4", "lanes8"}[k]
}

// checkNoFallback runs kernel k on the groups of eight consecutive
// points in tree order of a 3,000-point positive-mass cloud and requires
// each lane set of parts to finish in at least 99% of the groups.
func checkNoFallback(t *testing.T, k kernel, parts []uint8) {
	if hostKernel < k {
		t.Skipf("the %v kernel does not run here: this CPU or build runs at most the %v kernel", k, hostKernel)
	}
	ck2 := fpC * fpK * fpK
	pts, mass := cloud(11, 3000, 0, 1, 40)
	tr := Build(pts, mass)
	qs := groupQueries(tr, pts, mass, nil)
	for _, theta := range []float64{0.5, 0.9, 1.2} {
		groups, ran := 0, make([]int, len(parts))
		var g Group
		for i := 0; i < len(qs); i += GroupLanes {
			lanes := qs[i:min(i+GroupLanes, len(qs))]
			g.Reset()
			for _, q := range lanes {
				g.Add(q.p, q.exclude, q.mi, q.acc)
			}
			groups++
			done := tr.lockstep(&g, k, filterTheta2(theta), ck2)
			for j, part := range parts {
				if done&part == part {
					ran[j]++
				}
			}
			for l, q := range lanes {
				if done>>l&1 == 0 {
					continue
				}
				want := tr.Repulsion(q.p, q.exclude, theta, ck2, q.mi, q.acc)
				if got := g.Acc(l); !sameBits(got.X, want.X) || !sameBits(got.Y, want.Y) {
					t.Fatalf("theta %v lane %d, query %+v: kernel %v, Repulsion %v", theta, l, q, got, want)
				}
			}
		}
		for j, part := range parts {
			t.Logf("%v kernel, theta %v, lanes %08b: %d of %d groups ran without fallback", k, theta, part, ran[j], groups)
			if 100*ran[j] < 99*groups {
				t.Fatalf("theta %v, lanes %08b: the kernel finished %d of %d groups, want at least 99%%", theta, part, ran[j], groups)
			}
		}
	}
}

// TestKernelFor holds the kernel choice to the CPU features and the
// operating system state each kernel needs.
func TestKernelFor(t *testing.T) {
	const (
		base   = cpuOSXSAVE | cpuAVX
		avx512 = cpuAVX2 | cpuAVX512F | cpuAVX512D
	)
	for _, c := range []struct {
		name                              string
		maxLeaf, leaf1ECX, xcr0, leaf7EBX uint32
		want                              kernel
	}{
		{"avx512 with zmm state", 7, base, 0xe7, avx512, eightLanes},
		{"avx512 with exactly the needed state", 0xd, base, 0xe6, avx512, eightLanes},
		{"avx512 without zmm state", 7, base, 0x06, avx512, fourLanes},
		{"avx512 without opmask state", 7, base, 0xc6, avx512, fourLanes},
		{"avx512 without hi16 zmm state", 7, base, 0x66, avx512, fourLanes},
		{"avx512f without dq", 7, base, 0xe6, cpuAVX2 | cpuAVX512F, fourLanes},
		{"avx2", 7, base, 0x07, cpuAVX2, fourLanes},
		{"avx2 without osxsave", 7, cpuAVX, 0, cpuAVX2, scalarWalk},
		{"avx2 without avx", 7, cpuOSXSAVE, 0x07, cpuAVX2, scalarWalk},
		{"avx2 without ymm state", 7, base, 0x03, cpuAVX2, scalarWalk},
		{"avx512 without ymm state", 7, base, 0xe3, avx512, scalarWalk},
		{"no leaf 7", 6, base, 0xe7, avx512, scalarWalk},
		{"leaf 0 only", 0, 0, 0, 0, scalarWalk},
		{"avx without avx2", 7, base, 0x07, 0, scalarWalk},
	} {
		if got := kernelFor(c.maxLeaf, c.leaf1ECX, c.xcr0, c.leaf7EBX); got != c.want {
			t.Errorf("%s: kernelFor = %v, want %v", c.name, got, c.want)
		}
	}
}

// FuzzRepulsionGroup drives the group differential over cloud's shapes:
// point count, duplicates (the depth cap), mass mode, coordinate scale,
// theta and the rotation of group sizes are all fuzzed.
func FuzzRepulsionGroup(f *testing.F) {
	for k, c := range oracleCases {
		for _, theta := range []float64{0.5, 0.9, 1.2} {
			f.Add(c.seed, uint16(c.n), uint8(c.dups), uint8(c.massMod), c.scale, theta, uint8(k))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, dups, massMode uint8, scale, theta float64, shift uint8) {
		pts, mass := cloud(seed, int(n%2000), int(dups), int(massMode%4), scale)
		tr := Build(pts, mass)
		checkGroups(t, tr, groupQueries(tr, pts, mass, hazards(pts)), theta, fpC*fpK*fpK, int(shift))
	})
}

// TestOrderIsPreorder: Order lists every point once, and the points of
// the flat layout's leaves appear in it in preorder.
func TestOrderIsPreorder(t *testing.T) {
	var tr Tree
	for seed := int64(0); seed < 60; seed++ {
		n := []int{0, 1, 2, 3, 17, 470, 1024}[seed%7]
		pts, mass := capCloud(seed, n, []int{0, 0, 5, 70}[seed%4], int(seed/7)%4, int(seed/28)%3, 1)
		tr.Rebuild(pts, mass)
		order := tr.Order()
		seen := make([]bool, n)
		pos := make([]int, n)
		for k, v := range order {
			if seen[v] {
				t.Fatalf("seed %d: point %d listed twice", seed, v)
			}
			seen[v], pos[v] = true, k
		}
		if len(order) != n {
			t.Fatalf("seed %d: Order lists %d points, want %d", seed, len(order), n)
		}
		last := -1
		for _, f := range tr.flat {
			if f.pt < 0 {
				continue
			}
			if pos[f.pt] <= last {
				t.Fatalf("seed %d: leaf point %d out of preorder", seed, f.pt)
			}
			last = pos[f.pt]
		}
	}
}
