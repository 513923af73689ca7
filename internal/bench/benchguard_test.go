package bench

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
)

// seedRows is one entry of the seed-row guard: a sample of one
// committed BENCH file and the harness settings it is re-derived under.
type seedRows struct {
	name     string // subtest name
	file     string // BENCH file at the repository root
	graphs   []string
	ps       []int // nil: the file's whole sweep
	compress bool
	trace    bool
	recover  core.RecoveryPolicy
}

// seedGraphs are the four cheapest suite graphs, sampled from the
// scale-0.25 files.
var seedGraphs = []string{"ecology1", "ecology2", "delaunay_n20", "G3_circuit"}

// seedEntries are the sampled rows. BENCH_4 was committed before the
// observability layer and the recovery driver existed, BENCH_5 before
// the compressed representation, BENCH_6 (scale 1, recorded with
// -compress) before the high-P collective engine, and BENCH_7 (scale 8,
// -compress) before the quality layer, under a since-removed batched
// rank scheduler. None of those layers, when present but idle, may move
// a recorded modeled field.
var seedEntries = []seedRows{
	{name: "BENCH_4/plain", file: "BENCH_4.json", graphs: seedGraphs, ps: []int{1, 4, 16}},
	{name: "BENCH_4/traced", file: "BENCH_4.json", graphs: []string{"ecology1"}, ps: []int{1, 4}, trace: true},
	{name: "BENCH_4/recover-respawn", file: "BENCH_4.json", graphs: []string{"ecology1"}, ps: []int{1, 4, 16}, recover: core.RecoverRespawn},
	{name: "BENCH_4/recover-shrink", file: "BENCH_4.json", graphs: []string{"ecology1"}, ps: []int{1, 4, 16}, recover: core.RecoverShrink},
	{name: "BENCH_5/plain", file: "BENCH_5.json", graphs: seedGraphs, ps: []int{1, 4, 16}},
	{name: "BENCH_5/compressed", file: "BENCH_5.json", graphs: seedGraphs, ps: []int{1, 4, 16}, compress: true},
	{name: "BENCH_6/compressed", file: "BENCH_6.json", graphs: []string{"ecology1"}, compress: true},
	{name: "BENCH_7/compressed", file: "BENCH_7.json", graphs: []string{"ecology1"}, ps: []int{1, 4}, compress: true},
}

// readSeedFile decodes a committed BENCH file and indexes its rows by
// graph and P.
func readSeedFile(t *testing.T, name string) (*BenchFile, map[string]map[int]BenchRecord) {
	t.Helper()
	raw, err := os.ReadFile("../../" + name)
	if err != nil {
		t.Fatal(err)
	}
	var file BenchFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	rows := map[string]map[int]BenchRecord{}
	for _, r := range file.Runs {
		if rows[r.Graph] == nil {
			rows[r.Graph] = map[int]BenchRecord{}
		}
		rows[r.Graph][r.P] = r
	}
	return &file, rows
}

// rowFields are the modeled fields of a BENCH row, which no host
// setting may move.
type rowFields struct {
	Cut                   int64
	Imbalance, Time, Comm float64
	Messages, Bytes       int64
}

func recorded(r BenchRecord) rowFields {
	return rowFields{r.Cut, r.Imbalance, r.ModeledTime, r.CommTime, r.Messages, r.BytesSent}
}

func computed(r *Run) rowFields {
	return rowFields{r.Cut, r.Imbalance, r.Time, r.CommTime, r.Messages, r.BytesSent}
}

// TestSeedRowsBitIdentical re-derives every seedEntries sample and
// requires cut, imbalance, modeled time, comm time, messages and bytes
// bit-identical to the committed row: tracing, recovery with no fault,
// the compressed representation and the high-P engines may change host
// wall clocks and memory footprints, never a recorded result. Entries
// of one scale share one harness, whose run cache is keyed by every
// setting an entry changes, so a run two entries need is computed once;
// BENCH_4 and BENCH_5 carry the same modeled fields, and their plain
// samples are one set of runs. The last subtest requires the two files'
// sampled rows to stay equal, so re-recording one without the other
// fails.
func TestSeedRowsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("recomputes bench rows at scales 0.25, 1 and 8 (~45s)")
	}
	harnesses := map[float64]*Harness{}
	for _, e := range seedEntries {
		t.Run(e.name, func(t *testing.T) {
			file, rows := readSeedFile(t, e.file)
			h := harnesses[file.Scale]
			if h == nil {
				h = New(file.Scale, nil)
				harnesses[file.Scale] = h
			}
			h.Compress, h.Trace = e.compress, e.trace
			h.Recover = core.RecoverOptions{Policy: e.recover}
			ps := e.ps
			if ps == nil {
				ps = file.Ps
			}
			for _, g := range e.graphs {
				if c := h.Graph(g).G.Compressed(); c != e.compress {
					t.Fatalf("%s: harness graph Compressed() = %v, want %v", g, c, e.compress)
				}
				for _, p := range ps {
					want, ok := rows[g][p]
					if !ok {
						t.Fatalf("%s has no row for %s P=%d", e.file, g, p)
					}
					got := h.Get(g, MethodSP, p)
					if computed(got) != recorded(want) {
						t.Errorf("%s P=%d drifted from %s:\n  want %+v\n  got  %+v", g, p, e.file, recorded(want), computed(got))
					}
					if got.Fallback {
						t.Errorf("%s P=%d fell back to the sequential partitioner", g, p)
					}
					if got.PeakRSS <= 0 {
						t.Errorf("%s P=%d recorded no peak RSS", g, p)
					}
					if e.trace && len(got.Breakdown) == 0 {
						t.Errorf("traced %s P=%d run has no phase breakdown", g, p)
					}
				}
			}
		})
	}
	t.Run("BENCH_4_equals_BENCH_5", func(t *testing.T) {
		_, rows4 := readSeedFile(t, "BENCH_4.json")
		_, rows5 := readSeedFile(t, "BENCH_5.json")
		for _, g := range seedGraphs {
			for _, p := range []int{1, 4, 16} {
				if a, b := recorded(rows4[g][p]), recorded(rows5[g][p]); a != b {
					t.Errorf("%s P=%d: BENCH_4 and BENCH_5 modeled fields differ:\n  BENCH_4 %+v\n  BENCH_5 %+v", g, p, a, b)
				}
			}
		}
	})
}
