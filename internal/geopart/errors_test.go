package geopart

import (
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/geometry"
)

// TestPartitionCoordMismatchError: a coordinate array that does not
// match the graph must come back as an error, not a panic.
func TestPartitionCoordMismatchError(t *testing.T) {
	g := gen.Grid2D(4, 4)
	_, _, err := Partition(g.G, g.Coords[:5], G7NL())
	if err == nil || !strings.Contains(err.Error(), "coordinates") {
		t.Fatalf("want coordinate mismatch error, got %v", err)
	}
}

func TestPartition3DCoordMismatchError(t *testing.T) {
	g := gen.Grid3D(4, 4, 4)
	_, _, err := Partition3D(g.G, g.Coords[:7], G7NL())
	if err == nil || !strings.Contains(err.Error(), "coordinates") {
		t.Fatalf("want coordinate mismatch error, got %v", err)
	}
}

// TestRCBInvalidPartCount: non-power-of-two (and non-positive) part
// counts are rejected with an error naming the count.
func TestRCBInvalidPartCount(t *testing.T) {
	g := gen.Grid2D(8, 8)
	for _, parts := range []int{0, -2, 3, 6, 12} {
		if _, err := RCB(g.G, g.Coords, parts); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Fatalf("parts=%d: want power-of-two error, got %v", parts, err)
		}
	}
	if _, err := RCB(g.G, g.Coords[:3], 4); err == nil || !strings.Contains(err.Error(), "coordinates") {
		t.Fatalf("want coordinate mismatch error, got %v", err)
	}
}

// TestRCBBisectCoordMismatchError: too few coordinates (which would
// index past the array) and surplus ones (which would be ignored) both
// come back as RCB's error, in 2-D and 3-D.
func TestRCBBisectCoordMismatchError(t *testing.T) {
	g := gen.Grid2D(4, 4)
	surplus := append(append([]geometry.Vec2{}, g.Coords...), geometry.Vec2{})
	for name, coords := range map[string][]geometry.Vec2{"short": g.Coords[:3], "surplus": surplus} {
		if _, _, err := RCBBisect(g.G, coords); err == nil || !strings.Contains(err.Error(), "coordinates") {
			t.Fatalf("%s: want coordinate mismatch error, got %v", name, err)
		}
	}
	g3 := gen.Grid3D(4, 4, 4)
	if _, _, err := RCBBisect(g3.G, g3.Coords[:7]); err == nil || !strings.Contains(err.Error(), "coordinates") {
		t.Fatalf("3-D short: want coordinate mismatch error, got %v", err)
	}
}

func TestRCB3DInvalidPartCount(t *testing.T) {
	g := gen.Grid3D(4, 4, 4)
	for _, parts := range []int{0, 3, 6} {
		if _, err := RCB(g.G, g.Coords, parts); err == nil || !strings.Contains(err.Error(), "power of two") {
			t.Fatalf("parts=%d: want power-of-two error, got %v", parts, err)
		}
	}
	if _, err := RCB(g.G, []geometry.Vec3{{}}, 4); err == nil || !strings.Contains(err.Error(), "coordinates") {
		t.Fatalf("want coordinate mismatch error, got %v", err)
	}
}
