package core

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/geopart"
	"repro/internal/mpi"
)

// TestGeometricCheckedBadInput: the geometric *Checked entry points
// never panic. A world size below one or a coordinate array of the
// wrong length is an error; non-finite coordinates either return an
// error or a partition that passes CheckPartition.
func TestGeometricCheckedBadInput(t *testing.T) {
	g := gen.Grid2D(12, 12)
	n := g.G.NumVertices()
	with := func(v int, q geometry.Vec2) []geometry.Vec2 {
		c := append([]geometry.Vec2(nil), g.Coords...)
		c[v] = q
		return c
	}
	cases := []struct {
		name    string
		coords  []geometry.Vec2
		p       int
		wantErr bool
	}{
		{"short-coords", g.Coords[:n-1], 4, true},
		{"long-coords", append(append([]geometry.Vec2(nil), g.Coords...), geometry.Vec2{}), 4, true},
		{"no-coords", nil, 4, true},
		{"p=0", g.Coords, 0, true},
		{"p=-1", g.Coords, -1, true},
		{"nan-x", with(5, geometry.Vec2{X: math.NaN(), Y: 1}), 4, false},
		{"nan-y-p1", with(n-1, geometry.Vec2{X: 1, Y: math.NaN()}), 1, false},
		{"nan-both-p64", with(3, geometry.Vec2{X: math.NaN(), Y: math.NaN()}), 64, false},
		{"+inf", with(0, geometry.Vec2{X: math.Inf(1), Y: 0}), 4, false},
		{"-inf-p16", with(7, geometry.Vec2{X: 0, Y: math.Inf(-1)}), 16, false},
		{"valid", g.Coords, 4, false},
	}
	entries := []struct {
		name string
		run  func(coords []geometry.Vec2, p int) (*Result, error)
	}{
		{"PartitionGeometricChecked", func(coords []geometry.Vec2, p int) (*Result, error) {
			return PartitionGeometricChecked(g.G, coords, p, geopart.DefaultParallelConfig(), mpi.Model{})
		}},
		{"RCBParallelChecked", func(coords []geometry.Vec2, p int) (*Result, error) {
			return RCBParallelChecked(g.G, coords, p, mpi.Model{})
		}},
	}
	for _, e := range entries {
		for _, tc := range cases {
			t.Run(e.name+"/"+tc.name, func(t *testing.T) {
				res, err := func() (res *Result, err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
							t.Errorf("panicked: %v", r)
						}
					}()
					return e.run(tc.coords, tc.p)
				}()
				if err != nil {
					if tc.name == "valid" {
						t.Fatalf("valid input rejected: %v", err)
					}
					return
				}
				if tc.wantErr {
					t.Fatalf("accepted p=%d with %d coordinates for %d vertices", tc.p, len(tc.coords), n)
				}
				if err := CheckPartition(g.G, res.Part, res.Cut, res.Imbalance); err != nil {
					t.Fatalf("result fails CheckPartition: %v", err)
				}
			})
		}
	}
}
