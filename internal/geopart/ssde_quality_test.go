package geopart

import (
	"testing"

	"repro/internal/embed"
	"repro/internal/gen"
)

// TestSSDEPartitionQuality: SSDE coordinates must support a decent
// geometric cut (within a small factor of natural coordinates).
func TestSSDEPartitionQuality(t *testing.T) {
	g := gen.DelaunayRandom(4000, 6)
	ssde := embed.SSDELayout(g.G, 3)
	_, sSSDE, errS := Partition(g.G, ssde, G7NL())
	_, sNat, errN := Partition(g.G, g.Coords, G7NL())
	if errS != nil || errN != nil {
		t.Fatal(errS, errN)
	}
	if sSSDE.Cut > 4*sNat.Cut {
		t.Fatalf("SSDE cut %d vs natural %d", sSSDE.Cut, sNat.Cut)
	}
}
