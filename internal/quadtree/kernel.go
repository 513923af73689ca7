package quadtree

// kernel names the lock-step walk RepulsionGroup runs.
type kernel uint8

const (
	scalarWalk kernel = iota // none: Repulsion lane by lane
	fourLanes                // walk4 (AVX2), lanes 0–3 and then lanes 4–7
	eightLanes               // walk8 (AVX-512F and DQ), all eight lanes
)

// CPUID and XCR0 bits that kernelFor reads.
const (
	cpuOSXSAVE = 1 << 27 // leaf 1 ECX: XGETBV is enabled
	cpuAVX     = 1 << 28 // leaf 1 ECX
	cpuAVX2    = 1 << 5  // leaf 7 EBX
	cpuAVX512F = 1 << 16 // leaf 7 EBX
	cpuAVX512D = 1 << 17 // leaf 7 EBX: AVX-512DQ, for KORTESTB and KNOTB

	xcr0YMM = 0x06 // XMM and YMM state
	xcr0ZMM = 0xe6 // XMM, YMM, opmask, ZMM_Hi256 and Hi16_ZMM state
)

// kernelFor returns the widest lock-step kernel that a CPU and its
// operating system support, from CPUID leaf 0's EAX (maxLeaf), leaf 1's
// ECX, XCR0 as XGETBV reads it (0 where leaf 1 lacks OSXSAVE, since
// XGETBV then faults), and leaf 7's EBX. A vector kernel needs the
// operating system to save every register it touches across a context
// switch: without XCR0's opmask and ZMM bits, the eight-lane kernel
// would fault or see its registers corrupted.
func kernelFor(maxLeaf, leaf1ECX, xcr0, leaf7EBX uint32) kernel {
	if maxLeaf < 7 || leaf1ECX&cpuOSXSAVE == 0 || leaf1ECX&cpuAVX == 0 || xcr0&xcr0YMM != xcr0YMM {
		return scalarWalk
	}
	const avx512 = cpuAVX512F | cpuAVX512D
	switch {
	case leaf7EBX&avx512 == avx512 && xcr0&xcr0ZMM == xcr0ZMM:
		return eightLanes
	case leaf7EBX&cpuAVX2 != 0:
		return fourLanes
	}
	return scalarWalk
}
