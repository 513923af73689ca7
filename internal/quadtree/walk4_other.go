//go:build !amd64 || purego

package quadtree

// hasAVX2 is false: this build has no four-lane kernel.
const hasAVX2 = false

// lockstep has no four-lane kernel on this build: every group falls back
// to Repulsion lane by lane.
func (t *Tree) lockstep(*Group, float64, float64) bool {
	return false
}
