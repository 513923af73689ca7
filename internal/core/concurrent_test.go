package core

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/geopart"
)

// TestConcurrentConfigsMatchSerial: every run setting is a value, so
// differently configured partitions share one process without touching
// each other. Full-cut refinement on and off, one and two trials, and
// a repartitioning call all run at once, and each must equal its own
// serial run in partition, cut, phase times and per-rank stats.
func TestConcurrentConfigsMatchSerial(t *testing.T) {
	g := gen.Grid2D(24, 24)
	const p = 8
	type config struct {
		name string
		run  func() (*Result, error)
	}
	var configs []config
	for _, rounds := range []int{0, geopart.FullRefineRounds} {
		for _, trials := range []int{1, 2} {
			opt := DefaultOptions(5)
			opt.Partition.FullCutRounds = rounds
			opt.Trials = trials
			configs = append(configs, config{
				name: fmt.Sprintf("fullcut=%d trials=%d", rounds, trials),
				run:  func() (*Result, error) { return PartitionChecked(g.G, p, opt) },
			})
		}
	}
	geo := withFullCut(DefaultOptions(5))
	configs = append(configs, config{
		name: "geometric fullcut=4",
		run: func() (*Result, error) {
			return PartitionGeometricChecked(g.G, g.Coords, p, geo.Partition, geo.Model)
		},
	})

	serial := make([]*Result, len(configs))
	for i, c := range configs {
		res, err := c.run()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		serial[i] = res
	}
	// The settings must reach the run, or the comparison below proves
	// nothing: full-cut refinement and a second trial both charge time.
	if serial[2].Times.Partition <= serial[0].Times.Partition {
		t.Fatalf("full-cut refinement charged nothing: %v vs %v", serial[2].Times.Partition, serial[0].Times.Partition)
	}
	if serial[1].Times.Embed <= serial[0].Times.Embed {
		t.Fatalf("a second trial charged nothing: %v vs %v", serial[1].Times.Embed, serial[0].Times.Embed)
	}

	concurrent := make([]*Result, len(configs))
	errs := make([]error, len(configs))
	var wg sync.WaitGroup
	for i, c := range configs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i], errs[i] = c.run()
		}()
	}
	wg.Wait()
	for i, c := range configs {
		if errs[i] != nil {
			t.Fatalf("%s: %v", c.name, errs[i])
		}
		got, want := concurrent[i], serial[i]
		if got.Cut != want.Cut || !slices.Equal(got.Part, want.Part) {
			t.Errorf("%s: concurrent cut %d differs from serial %d (or its partition does)", c.name, got.Cut, want.Cut)
		}
		if got.Times != want.Times {
			t.Errorf("%s: concurrent times %+v, serial %+v", c.name, got.Times, want.Times)
		}
		if !slices.Equal(got.Stats, want.Stats) {
			t.Errorf("%s: concurrent per-rank stats differ from serial", c.name)
		}
	}
}
