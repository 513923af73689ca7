package bench

import (
	"encoding/json"

	"repro/internal/hostpar"
	"repro/internal/trace"
)

// BenchRecord is one row of a BENCH_*.json perf-trajectory file: the
// modeled outcome of one (graph, method, P) run plus the host
// wall-clock the simulator spent producing it, so both modeled and
// simulator-speed regressions are visible across PRs.
type BenchRecord struct {
	Graph       string  `json:"graph"`
	Method      string  `json:"method"`
	P           int     `json:"p"`
	Cut         int64   `json:"cut"`
	Imbalance   float64 `json:"imbalance"`
	ModeledTime float64 `json:"modeled_time_s"`
	CommTime    float64 `json:"comm_time_s"`
	Messages    int64   `json:"messages"`
	BytesSent   int64   `json:"bytes_sent"`
	WallSeconds float64 `json:"wall_s"`
	// HostWorkers records the host worker count the wall clock was
	// measured under; every modeled field above is independent of it by
	// construction (TestHierarchyBitIdentical). Older files also
	// carry a "collectives" key (from when a second collective engine
	// existed) and a "replay_mode" key (from when a second rank
	// scheduler existed), which decoding ignores.
	HostWorkers int  `json:"host_workers,omitempty"`
	Fallback    bool `json:"fallback,omitempty"`
	// Compressed records whether the run consumed the delta/varint
	// compressed adjacency (Harness.Compress); BytesPerEdge is the
	// adjacency footprint of the input graph per undirected edge under
	// that representation, and PeakRSS the max heap+stack in-use bytes
	// sampled while the run computed. All three are host-memory
	// observability; the modeled fields above are independent of the
	// representation by construction (TestCompressedPipelineBitIdentical).
	Compressed   bool    `json:"compressed,omitempty"`
	BytesPerEdge float64 `json:"bytes_per_edge,omitempty"`
	PeakRSS      int64   `json:"peak_rss_bytes,omitempty"`
	// PhaseBreakdown is present only when the sweep ran with tracing on
	// (Harness.Trace); the default BENCH files omit it, keeping them
	// bit-identical to pre-tracing files.
	PhaseBreakdown []trace.PhaseCost `json:"phase_breakdown,omitempty"`
}

// BenchFile is the top-level shape of a BENCH_*.json file. HostWorkers
// records the fork-join pool size the wall clocks were measured under;
// modeled fields are independent of it by construction
// (TestHierarchyBitIdentical).
type BenchFile struct {
	Scale       float64       `json:"suite_scale"`
	Ps          []int         `json:"ps"`
	HostWorkers int           `json:"host_workers,omitempty"`
	Runs        []BenchRecord `json:"runs"`
}

// BenchJSON sweeps ScalaPart over the synthetic suite (warming the
// cache in parallel) and renders the per-run records as indented JSON.
func (h *Harness) BenchJSON() ([]byte, error) {
	h.Precompute([]string{MethodSP})
	file := BenchFile{Scale: h.Scale, Ps: h.Ps, HostWorkers: hostpar.Workers()}
	for _, name := range SuiteNames() {
		g := h.Graph(name)
		bytesPerEdge := 0.0
		if m := g.G.NumEdges(); m > 0 {
			bytesPerEdge = float64(g.G.AdjacencyBytes()) / float64(m)
		}
		for _, p := range h.Ps {
			r := h.Get(name, MethodSP, p)
			file.Runs = append(file.Runs, BenchRecord{
				Graph:       r.Graph,
				Method:      r.Method,
				P:           r.P,
				Cut:         r.Cut,
				Imbalance:   r.Imbalance,
				ModeledTime: r.Time,
				CommTime:    r.CommTime,
				Messages:    r.Messages,
				BytesSent:   r.BytesSent,
				WallSeconds: r.WallSeconds,
				HostWorkers: hostpar.Workers(),
				Fallback:    r.Fallback,

				Compressed:   g.G.Compressed(),
				BytesPerEdge: bytesPerEdge,
				PeakRSS:      r.PeakRSS,

				PhaseBreakdown: r.Breakdown,
			})
		}
	}
	return json.MarshalIndent(&file, "", "  ")
}
