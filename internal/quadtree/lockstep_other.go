//go:build !amd64 || purego

package quadtree

// hostKernel is scalarWalk: this build has no lock-step kernel.
const hostKernel = scalarWalk

// lockstep finishes no lane on this build: every group falls back to
// Repulsion lane by lane.
func (t *Tree) lockstep(*Group, kernel, float64, float64) uint8 {
	return 0
}
