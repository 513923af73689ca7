//go:build amd64 && !purego

package quadtree

import "math"

// hostKernel is the widest lock-step kernel this CPU runs, read once at
// start-up.
var hostKernel = detectKernel()

// detectKernel reads CPUID and XCR0 for kernelFor.
func detectKernel() kernel {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, leaf1ECX, _ := cpuid(1, 0)
	_, leaf7EBX, _, _ := cpuid(7, 0)
	var xcr0 uint32
	if leaf1ECX&cpuOSXSAVE != 0 {
		xcr0, _ = xgetbv()
	}
	return kernelFor(maxLeaf, leaf1ECX, xcr0, leaf7EBX)
}

// lockstep runs kernel k over g's lanes and returns the mask of lanes it
// finished; every other lane's accumulator is as it was. The four-lane
// kernel takes lanes 0–3 and then lanes 4–7, each half finishing or
// declining on its own.
func (t *Tree) lockstep(g *Group, k kernel, th2, ck2 float64) (done uint8) {
	switch k {
	case eightLanes:
		g.startLanes()
		if walk8(t.flat, g, th2, ck2) {
			done = 0xff
		}
	case fourLanes:
		g.startLanes()
		if walk4(t.flat, g, 0, th2, ck2) {
			done = 0x0f
		}
		if g.n > 4 && walk4(t.flat, g, 4, th2, ck2) {
			done |= 0xf0
		}
	}
	return done
}

// startLanes readies g's walk state for a lock-step kernel: a lane in
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

// walk4 is the four-lane walk of walk4_amd64.s over lanes lane0 to
// lane0+3 of grp (lane0 is 0 or 4). It needs th2 not NaN.
//
//go:noescape
func walk4(flat []flatNode, grp *Group, lane0 int, th2, ck2 float64) bool

// walk8 is the eight-lane walk of walk8_amd64.s. It needs th2 not NaN.
//
//go:noescape
func walk8(flat []flatNode, grp *Group, th2, ck2 float64) bool
