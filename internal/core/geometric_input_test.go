package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/geometry"
	"repro/internal/geopart"
	"repro/internal/graph"
	"repro/internal/mpi"
)

// TestGeometricCheckedBadInput: the geometric *Checked entry points
// never panic. A world size below one or a coordinate array of the
// wrong length is an error; non-finite coordinates either return an
// error or a partition that passes CheckPartition. The empty graph is
// valid input and partitions into the empty partition.
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
		g       *graph.Graph // nil: the grid
	}{
		{"short-coords", g.Coords[:n-1], 4, true, nil},
		{"long-coords", append(append([]geometry.Vec2(nil), g.Coords...), geometry.Vec2{}), 4, true, nil},
		{"no-coords", nil, 4, true, nil},
		{"p=0", g.Coords, 0, true, nil},
		{"p=-1", g.Coords, -1, true, nil},
		{"p=-3", g.Coords, -3, true, nil},
		{"nan-x", with(5, geometry.Vec2{X: math.NaN(), Y: 1}), 4, false, nil},
		{"nan-y-p1", with(n-1, geometry.Vec2{X: 1, Y: math.NaN()}), 1, false, nil},
		{"nan-both-p64", with(3, geometry.Vec2{X: math.NaN(), Y: math.NaN()}), 64, false, nil},
		{"+inf", with(0, geometry.Vec2{X: math.Inf(1), Y: 0}), 4, false, nil},
		{"-inf-p16", with(7, geometry.Vec2{X: 0, Y: math.Inf(-1)}), 16, false, nil},
		{"valid", g.Coords, 4, false, nil},
		{"empty-graph", nil, 4, false, graph.NewBuilder(0).Build()},
		{"empty-graph-p1", nil, 1, false, graph.NewBuilder(0).Build()},
	}
	entries := []struct {
		name string
		run  func(g *graph.Graph, coords []geometry.Vec2, p int) (*Result, error)
	}{
		{"PartitionGeometricChecked", func(g *graph.Graph, coords []geometry.Vec2, p int) (*Result, error) {
			return PartitionGeometricChecked(g, coords, p, geopart.DefaultParallelConfig(), mpi.Model{})
		}},
		{"RCBParallelChecked", func(g *graph.Graph, coords []geometry.Vec2, p int) (*Result, error) {
			return RCBParallelChecked(g, coords, p, mpi.Model{})
		}},
	}
	for _, e := range entries {
		for _, tc := range cases {
			t.Run(e.name+"/"+tc.name, func(t *testing.T) {
				gr := g.G
				if tc.g != nil {
					gr = tc.g
				}
				res, err := func() (res *Result, err error) {
					defer func() {
						if r := recover(); r != nil {
							err = fmt.Errorf("panic: %v", r)
							t.Errorf("panicked: %v", r)
						}
					}()
					return e.run(gr, tc.coords, tc.p)
				}()
				if err != nil {
					if tc.name == "valid" || tc.g != nil {
						t.Fatalf("valid input rejected: %v", err)
					}
					return
				}
				if tc.wantErr {
					t.Fatalf("accepted p=%d with %d coordinates for %d vertices", tc.p, len(tc.coords), n)
				}
				if err := CheckPartition(gr, res.Part, res.Cut, res.Imbalance); err != nil {
					t.Fatalf("result fails CheckPartition: %v", err)
				}
			})
		}
	}
}

// TestCheckedBadWorldSize: the whole-pipeline *Checked entry points
// reject a world size below one with an error, before any host work,
// instead of panicking in the runtime or in an allocation.
func TestCheckedBadWorldSize(t *testing.T) {
	g := gen.Grid2D(12, 12)
	recovered := DefaultOptions(3)
	recovered.Trials = 2
	recovered.Recover.Policy = RecoverRespawn
	entries := []struct {
		name string
		run  func(p int) error
	}{
		{"PartitionChecked", func(p int) error {
			_, err := PartitionChecked(g.G, p, DefaultOptions(3))
			return err
		}},
		{"PartitionChecked-trials-respawn", func(p int) error {
			_, err := PartitionChecked(g.G, p, recovered)
			return err
		}},
		{"baseline.PartitionChecked", func(p int) error {
			_, err := baseline.PartitionChecked(g.G, p, baseline.ParMetisLike(3))
			return err
		}},
	}
	for _, e := range entries {
		for _, p := range []int{0, -3} {
			t.Run(fmt.Sprintf("%s/p=%d", e.name, p), func(t *testing.T) {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panicked: %v", r)
						}
					}()
					return e.run(p)
				}()
				if err == nil || !strings.Contains(err.Error(), "world size") {
					t.Fatalf("p=%d: got %v, want a world-size error", p, err)
				}
			})
		}
	}
}

// TestCheckedErrorPrefix: each core entry point names itself in the
// error it returns for a bad world size.
func TestCheckedErrorPrefix(t *testing.T) {
	g := gen.Grid2D(4, 4)
	for _, e := range []struct {
		prefix string
		run    func() error
	}{
		{"PartitionChecked: ", func() error {
			_, err := PartitionChecked(g.G, 0, DefaultOptions(1))
			return err
		}},
		{"PartitionGeometricChecked: ", func() error {
			_, err := PartitionGeometricChecked(g.G, g.Coords, 0, geopart.DefaultParallelConfig(), mpi.Model{})
			return err
		}},
		{"RCBParallelChecked: ", func() error {
			_, err := RCBParallelChecked(g.G, g.Coords, 0, mpi.Model{})
			return err
		}},
	} {
		if err := e.run(); err == nil || !strings.HasPrefix(err.Error(), e.prefix) {
			t.Errorf("p=0: got %v, want an error starting %q", err, e.prefix)
		}
	}
}

// TestCheckedNegativeWorkers: the *Checked entry points reject a
// negative host width (Model.Workers) with an error, before any host
// work, instead of panicking when the world starts.
func TestCheckedNegativeWorkers(t *testing.T) {
	g := gen.Grid2D(12, 12)
	entries := []struct {
		name string
		run  func(w int) error
	}{
		{"PartitionChecked", func(w int) error {
			opt := DefaultOptions(3)
			opt.Model.Workers = w
			_, err := PartitionChecked(g.G, 4, opt)
			return err
		}},
		{"PartitionChecked-trials-respawn", func(w int) error {
			opt := DefaultOptions(3)
			opt.Trials = 2
			opt.Recover.Policy = RecoverRespawn
			opt.Model.Workers = w
			_, err := PartitionChecked(g.G, 4, opt)
			return err
		}},
		{"PartitionGeometricChecked", func(w int) error {
			m := mpi.DefaultModel()
			m.Workers = w
			_, err := PartitionGeometricChecked(g.G, g.Coords, 4, geopart.DefaultParallelConfig(), m)
			return err
		}},
		{"RCBParallelChecked", func(w int) error {
			m := mpi.DefaultModel()
			m.Workers = w
			_, err := RCBParallelChecked(g.G, g.Coords, 4, m)
			return err
		}},
		{"baseline.PartitionChecked", func(w int) error {
			cfg := baseline.ParMetisLike(3)
			cfg.Model.Workers = w
			_, err := baseline.PartitionChecked(g.G, 4, cfg)
			return err
		}},
	}
	for _, e := range entries {
		for _, w := range []int{-1, -8} {
			t.Run(fmt.Sprintf("%s/workers=%d", e.name, w), func(t *testing.T) {
				err := func() (err error) {
					defer func() {
						if r := recover(); r != nil {
							t.Fatalf("panicked: %v", r)
						}
					}()
					return e.run(w)
				}()
				if err == nil || !strings.Contains(err.Error(), "Model.Workers") {
					t.Fatalf("workers=%d: got %v, want a host-width error", w, err)
				}
			})
		}
	}
}
