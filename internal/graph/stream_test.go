package graph_test

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/graph"
)

// streamCase is a deterministic edge stream with duplicates,
// self-loops, reversed orientations, and non-unit weights — every
// Builder semantic BuildStreamed must reproduce.
func streamCase(n, edges int, weighted bool, seed int64) func(add func(u, v, w int32)) {
	return func(add func(u, v, w int32)) {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < edges; k++ {
			u := int32(rng.Intn(n))
			v := int32(rng.Intn(n))
			w := int32(1)
			if weighted && rng.Intn(3) == 0 {
				w = int32(rng.Intn(9) + 1)
			}
			add(u, v, w)
		}
	}
}

func buildViaBuilder(n int, emit func(add func(u, v, w int32))) *graph.Graph {
	b := graph.NewBuilder(n)
	emit(func(u, v, w int32) { b.AddWeightedEdge(u, v, w) })
	return b.Build()
}

// TestBuildStreamedMatchesBuilder proves the streamed path is
// bit-identical to feeding the same stream through the Builder, across
// weighted/unweighted streams and worker counts.
func TestBuildStreamedMatchesBuilder(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cases := []struct {
		name     string
		n, edges int
		weighted bool
	}{
		{"small-unweighted", 50, 300, false},
		{"small-weighted", 50, 300, true},
		{"large-unweighted", 3000, 20000, false},
		{"large-weighted", 3000, 20000, true},
		{"empty", 10, 0, false},
		{"zero-vertices", 0, 0, false},
	}
	for _, w := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(w)
		for _, tc := range cases {
			emit := streamCase(tc.n, tc.edges, tc.weighted, 42)
			want := buildViaBuilder(tc.n, emit)
			got := graph.BuildStreamed(tc.n, emit)
			sameGraph(t, want, got)
			if err := got.Validate(); err != nil {
				t.Fatalf("workers=%d %s: %v", w, tc.name, err)
			}
		}
	}
}

// TestBuildStreamedPanics pins the Builder-compatible panic contracts.
func TestBuildStreamedPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("out-of-range", func() {
		graph.BuildStreamed(2, func(add func(u, v, w int32)) { add(0, 2, 1) })
	})
	mustPanic("negative-n", func() {
		graph.BuildStreamed(-1, func(add func(u, v, w int32)) {})
	})
	mustPanic("nondeterministic-emit", func() {
		calls := 0
		graph.BuildStreamed(4, func(add func(u, v, w int32)) {
			calls++
			if calls == 1 {
				add(0, 1, 1)
			}
		})
	})
}
