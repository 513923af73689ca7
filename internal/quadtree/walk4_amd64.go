//go:build amd64 && !purego

package quadtree

import "math"

// hasAVX2 reports whether the CPU and the operating system support the
// AVX2 four-lane kernel, read once at start-up.
var hasAVX2 = detectAVX2()

// detectAVX2 checks CPUID for AVX, OSXSAVE and AVX2, and XGETBV for the
// operating system saving the XMM and YMM registers.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// lockstep runs the four-lane AVX2 walk of every lane of g and reports
// whether it finished; if not, g's accumulators are as they were.
func (t *Tree) lockstep(g *Group, th2, ck2 float64) bool {
	if !hasAVX2 {
		return false
	}
	g.startLanes()
	return walk4(t.flat, g, th2, ck2)
}

// startLanes readies g's walk state for the four-lane kernel: a lane in
// use resumes at node 0, a lane out of use never becomes active.
func (g *Group) startLanes() {
	for l := range g.resume {
		g.resume[l] = 0
		if l >= g.n {
			g.resume[l] = math.MaxInt64
		}
	}
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// walk4 is the four-lane walk of walk4_amd64.s. It needs th2 not NaN.
//
//go:noescape
func walk4(flat []flatNode, grp *Group, th2, ck2 float64) bool
